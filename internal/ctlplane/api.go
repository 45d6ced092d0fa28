package ctlplane

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"harmony/internal/expdb"
	"harmony/internal/history"
	"harmony/internal/server"
)

// SessionSource is the read-mostly view of the session registry the API
// needs. *server.Server satisfies it. Snapshots must be detached copies —
// the API encodes them to JSON with no server locks held.
type SessionSource interface {
	SessionSnapshots() []server.SessionSnapshot
	SessionSnapshot(id string) (server.SessionSnapshot, bool)
	// Retune requests one more reduced-scale restart for a running session.
	Retune(id string) error
}

// ExperienceSource is the browse/prune view of the experience store.
// server.Store satisfies it.
type ExperienceSource interface {
	Namespaces() []expdb.NamespaceInfo
	BrowseRecords(key string, offset, limit int) (page []history.ConfigPerf, total int)
	Prune(key string) (int, error)
}

// API is the control-plane handler set. Zero-value fields degrade
// gracefully: a nil Experience serves empty namespace listings, a nil Hub
// turns the event stream off (404).
type API struct {
	Sessions   SessionSource
	Experience ExperienceSource
	Hub        *Hub
	// Logger receives one line per mutating request (retune, prune);
	// nil discards.
	Logger *slog.Logger
}

// Register mounts the control plane under /api/v1/ on mux, plus the
// embedded dashboard at /dashboard/ (and a redirect from the bare root).
// mux is typically the observability server's — registration is safe after
// it started serving.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/sessions", a.listSessions)
	mux.HandleFunc("GET /api/v1/sessions/{id}", a.getSession)
	mux.HandleFunc("POST /api/v1/sessions/{id}/retune", a.retune)
	mux.HandleFunc("GET /api/v1/expdb/namespaces", a.listNamespaces)
	mux.HandleFunc("GET /api/v1/expdb/records", a.browseRecords)
	mux.HandleFunc("POST /api/v1/expdb/prune", a.prune)
	if a.Hub != nil {
		mux.Handle("GET /api/v1/events", a.Hub)
	}
	registerDashboard(mux)
}

// encodeJSON marshals into a buffer first so an encoding failure can still
// become a clean 500 — and so handlers provably hold no locks while the
// bytes are produced (the input is always a detached snapshot).
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := encodeJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(data)         //nolint:errcheck // client gone
	w.Write([]byte("\n")) //nolint:errcheck
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

// sessionList is the GET /api/v1/sessions response shape. Connections
// counts the distinct transport connections behind the running sessions —
// under v4-mux many sessions share one (each snapshot's conn_id says
// which).
type sessionList struct {
	Sessions    []server.SessionSnapshot `json:"sessions"`
	Running     int                      `json:"running"`
	Connections int                      `json:"connections"`
}

func (a *API) listSessions(w http.ResponseWriter, r *http.Request) {
	snaps := a.Sessions.SessionSnapshots()
	running := 0
	conns := map[string]bool{}
	for _, s := range snaps {
		if s.Status == server.StatusRunning {
			running++
			conns[s.ConnID] = true
		}
	}
	if snaps == nil {
		snaps = []server.SessionSnapshot{}
	}
	writeJSON(w, http.StatusOK, sessionList{Sessions: snaps, Running: running, Connections: len(conns)})
}

func (a *API) getSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := a.Sessions.SessionSnapshot(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (a *API) retune(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := a.Sessions.Retune(id)
	switch {
	case errors.Is(err, server.ErrSessionUnknown):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, server.ErrSessionDone):
		writeError(w, http.StatusConflict, err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		if a.Logger != nil {
			a.Logger.Info("control plane: retune requested", "session", id)
		}
		// 202: the request is queued for the session's next convergence
		// decision, not performed synchronously.
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted", "session": id})
	}
}

// namespaceEntry decorates a store NamespaceInfo with its prune token.
type namespaceEntry struct {
	expdb.NamespaceInfo
	PruneToken string `json:"prune_token"`
}

func (a *API) listNamespaces(w http.ResponseWriter, r *http.Request) {
	entries := []namespaceEntry{}
	if a.Experience != nil {
		for _, info := range a.Experience.Namespaces() {
			entries = append(entries, namespaceEntry{NamespaceInfo: info, PruneToken: pruneToken(info)})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"namespaces": entries})
}

// recordPage is the GET /api/v1/expdb/records response shape.
type recordPage struct {
	Namespace string               `json:"namespace"`
	Offset    int                  `json:"offset"`
	Total     int                  `json:"total"`
	Records   []history.ConfigPerf `json:"records"`
}

// browseLimitMax caps one page so a curious dashboard cannot ask the store
// to copy out a million records in one request.
const browseLimitMax = 1000

func (a *API) browseRecords(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("ns")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing ?ns=<namespace key>")
		return
	}
	offset, ok := intParam(w, r, "offset", 0)
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit", 100)
	if !ok {
		return
	}
	if limit > browseLimitMax {
		limit = browseLimitMax
	}
	page := recordPage{Namespace: key, Offset: offset, Records: []history.ConfigPerf{}}
	if a.Experience != nil {
		recs, total := a.Experience.BrowseRecords(key, offset, limit)
		page.Total = total
		if recs != nil {
			page.Records = recs
		}
	}
	writeJSON(w, http.StatusOK, page)
}

// prune removes a whole namespace. Deletion is guarded by a confirmation
// token tied to the namespace's current contents: the caller must first
// list namespaces (learning the token) and echo it back, so a bare curl
// cannot destroy state by guessing, and a token goes stale when the
// namespace grows between listing and pruning.
func (a *API) prune(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("ns")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing ?ns=<namespace key>")
		return
	}
	token := r.URL.Query().Get("token")
	if token == "" {
		writeError(w, http.StatusBadRequest, "missing ?token= (from /api/v1/expdb/namespaces)")
		return
	}
	if a.Experience == nil {
		writeError(w, http.StatusNotFound, "no experience store configured")
		return
	}
	var current *expdb.NamespaceInfo
	for _, info := range a.Experience.Namespaces() {
		if info.Key == key {
			current = &info
			break
		}
	}
	if current == nil {
		writeError(w, http.StatusNotFound, "unknown namespace "+key)
		return
	}
	if token != pruneToken(*current) {
		writeError(w, http.StatusConflict, "stale or wrong prune token; re-list namespaces and retry")
		return
	}
	removed, err := a.Experience.Prune(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if a.Logger != nil {
		a.Logger.Info("control plane: namespace pruned", "namespace", key, "experiences", removed)
	}
	writeJSON(w, http.StatusOK, map[string]any{"pruned": key, "experiences_removed": removed})
}

// pruneToken derives the confirmation token from the namespace identity
// and its current sizes, so the token self-invalidates when the namespace
// changes after listing.
func pruneToken(info expdb.NamespaceInfo) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("prune:%s:%d:%d", info.Key, info.Experiences, info.Records)))
	return hex.EncodeToString(sum[:8])
}

func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, name+" must be a non-negative integer")
		return 0, false
	}
	return n, true
}
