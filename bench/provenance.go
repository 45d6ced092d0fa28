package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance is the header of every result: what was measured, built from
// which source, on what machine, with which seed and command line. The
// per-workload sizes ride with each workload's record.
type provenance struct {
	Rev        string   `json:"rev"`
	Dirty      bool     `json:"dirty"`
	GoVersion  string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numcpu"`
	Seed       uint64   `json:"seed"`
	Quick      bool     `json:"quick"`
	Trace      bool     `json:"trace"`
	Command    []string `json:"command"`
}

func newProvenance(cfg config, args []string) provenance {
	rev, dirty := sourceRevision()
	return provenance{
		Rev: rev, Dirty: dirty, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Quick: cfg.quick, Trace: cfg.trace,
		Command: append([]string{"bench"}, args...),
	}
}

// sourceRevision reads the VCS revision the binary was built from, falling
// back to asking git about the working directory; "unknown" when neither
// knows (a source tree outside version control).
func sourceRevision() (string, bool) {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return rev, dirty
		}
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	status, err := git("status", "--porcelain")
	return rev, err != nil || status != ""
}

// git runs a git query in the working directory without looking above it.
func git(args ...string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}
