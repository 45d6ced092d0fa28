package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"harmony/internal/expdb"
	"harmony/internal/obs"
	"harmony/internal/search"
)

// ledgerStore records every deposit that stores something: the vector it
// was filed under and the trace segment it covered. A segment whose
// indices are not contiguous is marked, which fails the comparison.
type ledgerStore struct {
	Store
	mu      sync.Mutex
	entries []string
}

func (l *ledgerStore) Record(key string, chars []float64, dir search.Direction, tr search.Trace) bool {
	stored := l.Store.Record(key, chars, dir, tr)
	if !stored {
		return false
	}
	start := tr[0].Index
	entry := fmt.Sprintf("%.4f %d+%d", chars, start, len(tr))
	for i, e := range tr {
		if e.Index != start+i {
			entry += fmt.Sprintf(" gap at %d", i)
			break
		}
	}
	l.mu.Lock()
	l.entries = append(l.entries, entry)
	l.mu.Unlock()
	return true
}

func (l *ledgerStore) ledger() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.entries...)
}

// TestDepositLedger pins where every session deposits: which vector each
// stored trace segment is filed under and which part of the trace it
// covers, for a clean warm session, a lockstep drifting session and a
// session severed during its post-drift re-tune.
func TestDepositLedger(t *testing.T) {
	charsA := []float64{0.8, 0.2}
	charsB := []float64{0.1, 0.9}

	start := func(t *testing.T, detect bool) (*Server, string, *ledgerStore, *collectTracer, chan SessionEnd) {
		t.Helper()
		db, err := expdb.Open(expdb.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		ledger := &ledgerStore{Store: NewDurableStore(db, nil)}
		tracer := &collectTracer{}
		s := NewServer()
		s.Experience = ledger
		s.Metrics = NewMetrics(obs.NewRegistry())
		s.DriftDetect = detect
		s.Tracer = tracer
		ends := make(chan SessionEnd, 4)
		s.OnSessionEnd = func(e SessionEnd) { ends <- e }
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			s.Close()
			db.Close()
		})
		return s, addr.String(), ledger, tracer, ends
	}
	register := func(t *testing.T, addr string, chars []float64) *Client {
		t.Helper()
		c := dial(t, addr)
		if _, err := c.Register(quadRSL, RegisterOptions{
			MaxEvals: 400, Improved: true, App: "ledger",
			Characteristics: chars, Proto: 3,
		}); err != nil {
			t.Fatal(err)
		}
		c.SetObserved(chars)
		return c
	}
	// drifting is the measure function of TestDriftDetectTriggersWarmRetune:
	// after a dozen measurements the observed characteristics switch to B
	// and the optimum jumps from (20,45) to (50,10).
	drifting := func(c *Client, n *atomic.Int64) func(search.Config) float64 {
		return func(cfg search.Config) float64 {
			px, py := 20, 45
			if n.Add(1) > 12 {
				c.SetObserved(charsB)
				px, py = 50, 10
			}
			dx, dy := float64(cfg[0]-px), float64(cfg[1]-py)
			return 1000 - dx*dx - dy*dy
		}
	}
	check := func(t *testing.T, got, want []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("deposit ledger = %q, want %q", got, want)
		}
	}

	t.Run("warm", func(t *testing.T) {
		_, addr, ledger, _, ends := start(t, false)
		for i, wantWarm := range []bool{false, true} {
			c := register(t, addr, charsA)
			if c.WarmStarted() != wantWarm {
				t.Fatalf("session %d warm = %v, want %v", i, c.WarmStarted(), wantWarm)
			}
			if _, err := c.Tune(quadPeak); err != nil {
				t.Fatal(err)
			}
			if end := waitEnd(t, ends); !end.Completed || !end.Deposited || end.Warm != wantWarm {
				t.Fatalf("session %d end = %+v", i, end)
			}
		}
		// Each session files its whole trace under the registered vector.
		check(t, ledger.ledger(), []string{
			"[0.8000 0.2000] 0+22",
			"[0.8000 0.2000] 0+3",
		})
	})

	t.Run("drift", func(t *testing.T) {
		_, addr, ledger, _, ends := start(t, true)
		c := register(t, addr, charsA)
		var n atomic.Int64
		if _, err := c.Tune(drifting(c, &n)); err != nil {
			t.Fatal(err)
		}
		if end := waitEnd(t, ends); !end.Completed || !end.Deposited {
			t.Fatalf("session end = %+v", end)
		}
		// Phase A under the registered vector, then each later phase
		// under the detector's live vector at its start: the EWMA trips a
		// second time on its way from A to B.
		check(t, ledger.ledger(), []string{
			"[0.8000 0.2000] 0+25",
			"[0.1385 0.8615] 25+22",
			"[0.1003 0.8997] 47+13",
		})
	})

	t.Run("severed-retune", func(t *testing.T) {
		s, addr, ledger, tracer, ends := start(t, true)
		c := register(t, addr, charsA)
		var n atomic.Int64
		measure := drifting(c, &n)
		retuning := func() bool {
			for _, e := range tracer.snapshot() {
				if e.Type == search.EventPhase && e.Op == "retune" {
					return true
				}
			}
			return false
		}
		after := 0
		_, err := c.Tune(func(cfg search.Config) float64 {
			if retuning() {
				if after++; after == 4 {
					c.conn.Close()
				}
			}
			return measure(cfg)
		})
		if err == nil {
			t.Fatal("Tune succeeded over a severed connection")
		}
		if end := waitEnd(t, ends); end.Completed || !end.Deposited {
			t.Fatalf("session end = %+v", end)
		}
		// Only the re-tune's measurements past the phase deposit go in on
		// the abnormal end.
		check(t, ledger.ledger(), []string{
			"[0.8000 0.2000] 0+25",
			"[0.1385 0.8615] 25+3",
		})
		if got := s.m().PartialDeposits.Value(); got != 1 {
			t.Errorf("partial deposits = %d, want 1", got)
		}
	})
}
