package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// minCompareRuns is the fewest runs per workload -compare accepts per side.
const minCompareRuns = 5

// runCompare compares two files of records, A the parent and B the change.
// Each workload gets its own rows: per end-to-end metric, each side's
// median and quartiles, the change of the median, the metric's bound, and
// a verdict. It refuses runs whose sizes differ.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two files: A (parent) and B (change)")
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b map[string][]record
		if b, err = readRecords(args[1]); err == nil {
			err = compare(stdout, a, b)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 1
	}
	return 0
}

// readRecords reads the record lines of a file (other lines, such as the
// printed tables and the final result line, are skipped), by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Workload == "" || rec.Metrics == nil {
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

func compare(w io.Writer, a, b map[string][]record) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1 q3]\tB median [q1 q3]\tchange\tbound\tidentical\tverdict")
	counts := map[string]int{}
	compared := 0
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) < minCompareRuns || len(rb) < minCompareRuns {
			return fmt.Errorf("%s: %d and %d runs; need at least %d on each side", wl.name, len(ra), len(rb), minCompareRuns)
		}
		for _, r := range append(append([]record(nil), ra...), rb...) {
			if r.Sizes != ra[0].Sizes {
				return fmt.Errorf("%s: runs of different sizes (%+v vs %+v) do the same work by definition only when sizes match", wl.name, r.Sizes, ra[0].Sizes)
			}
		}
		ra, rb, err := pairBySeed(ra, rb)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		compared++
		for _, d := range endToEnd {
			va, vb := metricValues(ra, d.Name), metricValues(rb, d.Name)
			qa, qb := quartiles(va), quartiles(vb)
			v := verdict(d, va, vb)
			if slices.Contains(deterministic, d.Name) {
				v = seedVerdict(d, va, vb)
			}
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g %.6g]\t%.6g [%.6g %.6g]\t%+.2f%%\t%.0f%%\t%t\t%s\n",
				wl.name, d.Name, d.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
				100*ratio(qb[1]-qa[1], math.Abs(qa[1])), 100*d.Bound, identical(va, vb), v)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no workload has records in both files")
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "# better=%d within=%d worse=%d unresolved=%d\n",
		counts["better"], counts["within bound"], counts["worse"], counts["unresolved"])
	return nil
}

// pairBySeed orders A's and B's runs so that the i-th run of each has the
// same seed, the runs of one seed in file order. Both sides must have run
// the same seeds, as many times each.
func pairBySeed(a, b []record) ([]record, []record, error) {
	bySeed := map[uint64][]record{}
	for _, r := range b {
		bySeed[r.Provenance.Seed] = append(bySeed[r.Provenance.Seed], r)
	}
	pb := make([]record, 0, len(a))
	for _, r := range a {
		s := r.Provenance.Seed
		if len(bySeed[s]) == 0 {
			return nil, nil, fmt.Errorf("seed %d has more runs in A than in B; run both commits on the same seeds", s)
		}
		pb = append(pb, bySeed[s][0])
		bySeed[s] = bySeed[s][1:]
	}
	if len(pb) != len(b) {
		return nil, nil, fmt.Errorf("B has runs of seeds A lacks; run both commits on the same seeds")
	}
	return a, pb, nil
}

func metricValues(recs []record, name string) []float64 {
	vs := make([]float64, len(recs))
	for i, r := range recs {
		vs[i] = r.Metrics[name]
	}
	return vs
}

func identical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// worseBy is the share by which y is worse than x on metric d; negative
// when y is better.
func worseBy(d metricDef, x, y float64) float64 {
	w := ratio(y-x, math.Abs(x))
	if d.Better == "higher" {
		return -w
	}
	return w
}

// verdict classifies the change B against the parent A on one timed metric;
// a[i] and b[i] ran on the same seed. A spread (interquartile range over
// median) wider than the bound on either side leaves the metric unresolved,
// unless every B run reads better than every A run. Otherwise B is worse
// when its median is worse than A's by more than the bound; better when it
// wins at least nine pairs in ten and its median moved by more than A's
// interquartile range; and within bound otherwise.
func verdict(d metricDef, a, b []float64) string {
	qa, qb := quartiles(a), quartiles(b)
	if ratio(qa[2]-qa[0], math.Abs(qa[1])) > d.Bound || ratio(qb[2]-qb[0], math.Abs(qb[1])) > d.Bound {
		for _, x := range b {
			for _, y := range a {
				if worseBy(d, y, x) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if worseBy(d, qa[1], qb[1]) > d.Bound {
		return "worse"
	}
	if 10*pairWins(d, a, b) >= 9*len(a) && worseBy(d, qa[1], qb[1]) < 0 && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0] {
		return "better"
	}
	return "within bound"
}

// seedVerdict classifies a metric that is deterministic for a seed. Such a
// metric varies between seeds but not between runs of one seed, so the
// change is judged seed by seed: B is worse when the median of its per-seed
// changes is worse than the bound, better when it wins at least nine seeds
// in ten and that median is a gain, and within bound otherwise — which
// includes identical.
func seedVerdict(d metricDef, a, b []float64) string {
	changes := make([]float64, len(a))
	for i := range a {
		changes[i] = worseBy(d, a[i], b[i])
	}
	m := median(changes)
	switch {
	case m > d.Bound:
		return "worse"
	case 10*pairWins(d, a, b) >= 9*len(a) && m < 0:
		return "better"
	}
	return "within bound"
}

// pairWins counts the pairs in which B reads better than A.
func pairWins(d metricDef, a, b []float64) int {
	wins := 0
	for i := range a {
		if worseBy(d, a[i], b[i]) < 0 {
			wins++
		}
	}
	return wins
}
