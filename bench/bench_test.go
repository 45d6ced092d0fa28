package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSpecMatchesCode keeps BENCHMARK.json and the metric and workload
// definitions the benchmark reports from in step, and every name in shape.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), perLayer...), reportOnly...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
	}
}

// quickRun runs the benchmark in-process on all four workloads with -quick
// and returns each workload's record, failing the test when the run does not
// pass its own checks or its last line breaks the result contract.
func quickRun(t *testing.T, seed uint64, trace bool) map[string]record {
	t.Helper()
	args := []string{"-quick", "-seed", strconv.FormatUint(seed, 10), "-workdir", t.TempDir()}
	if trace {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, stderr.String())
	}
	var lines []string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("last line has keys %v", keys)
	}
	recs := map[string]record{}
	for _, line := range lines[:len(lines)-1] {
		var rec record
		if line == "" || line[0] != '{' {
			continue
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		recs[rec.Workload] = rec
	}
	return recs
}

// TestQuickRun is the benchmark's own gate: a -quick run of all four
// workloads passes its correctness checks, emits every metric BENCHMARK.json
// lists for every workload, and the deterministic paper metrics repeat
// exactly for a seed — to within 5% for the order-dependent ones on a
// pipelined workload — and change for another.
func TestQuickRun(t *testing.T) {
	traced := quickRun(t, 1, true)
	again := quickRun(t, 1, false)
	other := quickRun(t, 2, false)
	for _, w := range workloads {
		rec, ok := traced[w.name]
		if !ok {
			t.Fatalf("%s: no record", w.name)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: correct=%t failed=%d problems=%v", w.name, rec.Correct, rec.Failed, rec.Problems)
		}
		for _, d := range endToEnd {
			if _, ok := rec.Metrics[d.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", w.name, d.Name)
			}
		}
		for _, d := range perLayer {
			if _, ok := rec.Layers[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.Name)
			}
		}
		changed := false
		for _, name := range deterministic {
			a, b := rec.Metrics[name], again[w.name].Metrics[name]
			if w.window > 1 && orderDependent[name] {
				if math.Abs(a-b) > 0.05*math.Abs(a) {
					t.Errorf("%s: %s = %v, then %v with the same seed", w.name, name, a, b)
				}
			} else if a != b {
				t.Errorf("%s: %s = %v, then %v with the same seed", w.name, name, a, b)
			}
			changed = changed || rec.Metrics[name] != other[w.name].Metrics[name]
		}
		if !changed {
			t.Errorf("%s: no deterministic metric changed with another seed", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 99, 101, 100, 100}, "within bound"},
		{[]float64{120, 121, 119, 122, 120}, "worse"},
		{[]float64{80, 81, 79, 80, 82}, "better"},
		{[]float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if got := verdict(lower, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %q, want %q", c.b, got, c.want)
		}
	}
}

// TestSeedVerdict judges deterministic metrics seed by seed: a spread across
// seeds far wider than the bound does not hide a change every seed shows.
func TestSeedVerdict(t *testing.T) {
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.02}
	base := []float64{100, 80, 120, 90, 110}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{base, "within bound"},
		{[]float64{97, 78, 116, 87, 106}, "worse"},
		{[]float64{101, 81, 121, 91, 111}, "better"},
		{[]float64{101, 79, 121, 89, 110}, "within bound"},
	} {
		if got := seedVerdict(higher, base, c.b); got != c.want {
			t.Errorf("seedVerdict(%v) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestPairBySeed(t *testing.T) {
	run := func(seed uint64, v float64) record {
		return record{Provenance: provenance{Seed: seed}, Metrics: map[string]float64{"x": v}}
	}
	a := []record{run(1, 10), run(2, 20), run(1, 11)}
	_, b, err := pairBySeed(a, []record{run(2, 21), run(1, 12), run(1, 13)})
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValues(b, "x"); !reflect.DeepEqual(got, []float64{12, 21, 13}) {
		t.Errorf("paired B = %v, want [12 21 13]", got)
	}
	if _, _, err := pairBySeed(a, []record{run(1, 12), run(2, 21), run(3, 13)}); err == nil {
		t.Error("runs of different seeds were paired")
	}
}
