package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
)

// provenance records where a BENCH_*.json report came from: the source
// revision the binary was built from and whether its tree had uncommitted
// changes, the Go toolchain, and the parallelism it ran with. The report's
// own seed field completes it. The revision is "unknown" when the binary
// carries no VCS stamp (go run, or a build with -buildvcs=false).
type provenance struct {
	Rev        string `json:"rev"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

func newProvenance() provenance {
	p := provenance{
		Rev: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Rev = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// writeReport emits a benchmark report as indented JSON on stdout.
func writeReport(rep any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
