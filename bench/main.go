// Command bench is the repository benchmark. It boots the tuning daemon
// in-process over loopback TCP, drives fixed-work closed-loop workloads
// against it from one process, checks that the outputs are correct, and
// prints every end-to-end metric by name and unit — or, with -trace 1, the
// per-layer metrics of a separate traced run.
//
//	bash bench/run.sh -workload warm-web -seed 1                # one workload
//	bash bench/run.sh -seed 1 >> A.jsonl                        # all four
//	bash bench/run.sh -workload warm-web -trace 1 -spans s.jsonl
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the full
// record (provenance, sizes, sample counts) that -compare reads. See
// README.md for the workloads, the metrics and how to read a spans file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	quick    bool
	trace    bool
	spans    string
	workDir  string
	// microTarget is how long each micro-benchmark loop runs.
	microTarget time.Duration
}

// record is one workload's result: the line -compare reads.
type record struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Sizes      sizes              `json:"sizes"`
	Correct    bool               `json:"correct"`
	Problems   []string           `json:"problems,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	// Raw holds the timings as measured, before scaling to the reference
	// machine's speed, and the run's median calibration.
	Raw map[string]float64 `json:"raw"`
	// Layers and LayerSamples are filled by a traced run.
	Layers       map[string]float64 `json:"layers,omitempty"`
	LayerSamples map[string]int     `json:"layer_samples,omitempty"`
}

// result is the final line, the summary a harness running the benchmark
// reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, seconds int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: lockstep-v3, mux-fleet, warm-web, hyperband-json or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.IntVar(&seconds, "seconds", runSeconds, fmt.Sprintf("the run length a harness expects; the sizes are fixed work calibrated for %d s, so only %d is accepted", runSeconds, runSeconds))
	fs.BoolVar(&cfg.quick, "quick", false, "divide every size by 50")
	fs.IntVar(&trace, "trace", 0, "1: also make a traced run and report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.spans, "spans", "", "traced runs: write the spans here (default <workdir>/spans-<workload>.jsonl)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for scratch data and default span files")
	fs.BoolVar(&compare, "compare", false, "compare two files of records: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || seconds != runSeconds || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "bench: want -seconds %d, -trace 0 or 1, and no arguments\n", runSeconds)
		return 2
	}
	cfg.trace = trace == 1
	cfg.microTarget = 100 * time.Millisecond
	if cfg.quick {
		cfg.microTarget = 5 * time.Millisecond
	}
	var selected []workload
	if cfg.workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(cfg.workload); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}

	prov := newProvenance(cfg, args)
	printProvenance(stdout, prov)
	var recs []record
	for _, w := range selected {
		rec, err := runWorkload(cfg, prov, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, p := range rec.Problems {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, p)
		}
		printRecord(stdout, rec, cfg.trace)
		recs = append(recs, rec)
	}

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		defs, vals := endToEnd, rec.Metrics
		if cfg.trace {
			defs, vals = perLayer, rec.Layers
		}
		for _, d := range defs {
			name := d.Name
			if len(recs) > 1 {
				name = rec.Workload + "/" + d.Name
			}
			final.Metrics[name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload prepares a workload's inputs, runs it untraced and, with
// -trace 1, traced, and returns its record.
func runWorkload(cfg config, prov provenance, w workload) (rec record, err error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return rec, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-"+w.name+"-")
	if err != nil {
		return rec, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	e := &env{w: w, sz: w.sizes(cfg.quick), dir: dir}
	e.in = w.inputs(cfg.seed, e.sz.Sessions)
	if w.web {
		for a := 0; a < w.apps(); a++ {
			e.prior = append(e.prior, newLedger())
		}
	}
	if w.durable {
		e.prepared = filepath.Join(dir, "prepared")
		if err := prepareStore(e.sz, cfg.seed, webApps(w.apps()), e.prior, e.prepared); err != nil {
			return rec, fmt.Errorf("preparing the data dir: %w", err)
		}
	}

	rec = record{Provenance: prov, Workload: w.name, Sizes: e.sz, Attempted: e.sz.Sessions}
	p, problems, err := runPhase(e, false)
	if err != nil {
		return rec, err
	}
	rec.Problems = problems
	rec.Failed = p.failed()
	rec.Metrics, rec.Samples, rec.Raw = p.endToEnd(e)
	if cfg.trace {
		tp, problems, err := runPhase(e, true)
		if err != nil {
			return rec, err
		}
		rec.Problems = append(rec.Problems, problems...)
		rec.Failed += tp.failed()
		rec.Attempted += e.sz.Sessions
		micro := map[string]float64{}
		for _, m := range micros {
			if micro[m.metric], err = runMicro(m, cfg.seed, dir, cfg.microTarget); err != nil {
				return rec, err
			}
		}
		rec.Layers, rec.LayerSamples = tp.layers(p, micro)
		spans := cfg.spans
		if spans == "" {
			spans = filepath.Join(cfg.workDir, "spans-"+w.name+".jsonl")
		} else if cfg.workload == "all" {
			spans = strings.TrimSuffix(spans, ".jsonl") + "-" + w.name + ".jsonl"
		}
		if err := writeSpans(spans, tp.workers); err != nil {
			return rec, err
		}
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

func printProvenance(w io.Writer, p provenance) {
	fmt.Fprintf(w, "# rev=%s dirty=%t go=%s GOMAXPROCS=%d NumCPU=%d seed=%d quick=%t trace=%t\n",
		p.Rev, p.Dirty, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.Seed, p.Quick, p.Trace)
	fmt.Fprintf(w, "# command: %s\n", strings.Join(p.Command, " "))
}

// printRecord prints a workload's sizes and metrics as a table.
func printRecord(w io.Writer, rec record, traced bool) {
	s := rec.Sizes
	fmt.Fprintf(w, "# %s: sessions=%d rounds=%d boots_per_round=%d in_flight=%d conns=%d max_evals=%d filler=%d correct=%t attempted=%d failed=%d\n",
		rec.Workload, s.Sessions, s.Rounds, s.Boots, s.InFlight, s.Conns, s.MaxEvals, s.Filler, rec.Correct, rec.Attempted, rec.Failed)
	fmt.Fprintf(w, "# %s: timings scaled to the reference machine: calibration %.4g ms here, %.4g ms there\n",
		rec.Workload, rec.Raw["calibration_ms"], calibrationRef.Seconds()*1e3)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tsamples")
	row := func(d metricDef, vals map[string]float64, samples map[string]int) {
		v, ok := vals[d.Name]
		if !ok {
			return
		}
		n := "-"
		if c, ok := samples[d.Name]; ok {
			n = fmt.Sprint(c)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", rec.Workload, d.Name, v, d.Unit, n)
	}
	for _, d := range endToEnd {
		row(d, rec.Metrics, rec.Samples)
	}
	if traced {
		for _, d := range append(append([]metricDef(nil), perLayer...), reportOnly...) {
			row(d, rec.Layers, rec.LayerSamples)
		}
	}
	tw.Flush()
}
