package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// quick runs an experiment in quick mode with the default seed; experiments
// are deterministic, so shape assertions are stable.
func quick(t *testing.T, id string) *Table {
	t.Helper()
	tbl, err := Run(id, Config{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tbl.ID != id {
		t.Errorf("table ID = %q, want %q", tbl.ID, id)
	}
	if len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
		t.Fatalf("%s produced an empty table", id)
	}
	return tbl
}

func cellF(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := tbl.Cell(row, col)
	s = strings.Fields(s)[0] // strip "(stddev)" style suffixes
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric", row, col, tbl.Cell(row, col))
	}
	return v
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2", "appB"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q not registered", w)
		}
		if Describe(w) == "" {
			t.Errorf("experiment %q has no description", w)
		}
	}
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestTableString(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("hello %d", 42)
	s := tbl.String()
	for _, want := range []string{"== x: T ==", "a", "1", "note: hello 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("table string missing %q:\n%s", want, s)
		}
	}
	if tbl.Cell(5, 5) != "" {
		t.Error("out-of-range Cell not empty")
	}
}

func TestFig4DistributionsMatch(t *testing.T) {
	tbl := quick(t, "fig4")
	if len(tbl.Rows) != 10 {
		t.Fatalf("fig4 rows = %d, want 10 buckets", len(tbl.Rows))
	}
	// Each column is a percentage distribution summing to ~100.
	for col := 1; col <= 2; col++ {
		sum := 0.0
		for row := range tbl.Rows {
			sum += cellF(t, tbl, row, col)
		}
		if sum < 99 || sum > 101 {
			t.Errorf("fig4 column %d sums to %v, want ~100", col, sum)
		}
	}
}

func TestFig5IdentifiesIrrelevantParams(t *testing.T) {
	tbl := quick(t, "fig5")
	if len(tbl.Rows) != 15 {
		t.Fatalf("fig5 rows = %d, want 15 parameters", len(tbl.Rows))
	}
	// H (row 4) and M (row 9) have exactly zero sensitivity at 0% noise.
	for _, row := range []int{4, 9} {
		if got := cellF(t, tbl, row, 1); got != 0 {
			t.Errorf("fig5 %s sensitivity at 0%% = %v, want 0", tbl.Cell(row, 0), got)
		}
	}
	// The most sensitive parameter at 0% is not H or M and is clearly
	// above the irrelevant floor at every noise level.
	maxRow, maxV := 0, 0.0
	for row := range tbl.Rows {
		if v := cellF(t, tbl, row, 1); v > maxV {
			maxRow, maxV = row, v
		}
	}
	if name := tbl.Cell(maxRow, 0); name == "H" || name == "M" {
		t.Errorf("irrelevant parameter %s ranked most sensitive", name)
	}
	for col := 2; col <= 4; col++ {
		if top := cellF(t, tbl, maxRow, col); top <= cellF(t, tbl, 4, col) {
			t.Errorf("noise column %d: top parameter (%v) not above irrelevant H (%v)",
				col, top, cellF(t, tbl, 4, col))
		}
	}
}

func TestFig6TimeGrowsWithN(t *testing.T) {
	tbl := quick(t, "fig6")
	if len(tbl.Rows) != 5 {
		t.Fatalf("fig6 rows = %d, want 5", len(tbl.Rows))
	}
	first := cellF(t, tbl, 0, 1)              // n=1 time at 0% noise
	last := cellF(t, tbl, len(tbl.Rows)-1, 1) // n=15 time
	if last <= 2*first {
		t.Errorf("fig6 time: n=15 (%v) not clearly above n=1 (%v)", last, first)
	}
	// Performance compromise stays small: n=5 perf within 10% of n=15 perf.
	p5, p15 := cellF(t, tbl, 1, 2), cellF(t, tbl, 4, 2)
	if p5 < 0.90*p15 {
		t.Errorf("fig6 perf: n=5 (%v) lost more than 10%% vs n=15 (%v)", p5, p15)
	}
}

func TestFig7CloserExperienceTunesFaster(t *testing.T) {
	tbl := quick(t, "fig7")
	if len(tbl.Rows) != 7 {
		t.Fatalf("fig7 rows = %d, want distances 0..6", len(tbl.Rows))
	}
	near := cellF(t, tbl, 0, 1)
	far := cellF(t, tbl, 6, 1)
	if far < 2*near {
		t.Errorf("fig7: far-experience time (%v) not clearly above near (%v)", far, near)
	}
}

func TestFig8WorkloadDependentSensitivity(t *testing.T) {
	tbl := quick(t, "fig8")
	if len(tbl.Rows) != 10 {
		t.Fatalf("fig8 rows = %d, want 10 parameters", len(tbl.Rows))
	}
	rowOf := func(name string) int {
		for i := range tbl.Rows {
			if tbl.Cell(i, 0) == name {
				return i
			}
		}
		t.Fatalf("fig8 missing parameter %s", name)
		return -1
	}
	cache := rowOf("PROXYCacheMem")
	if sh, or := cellF(t, tbl, cache, 1), cellF(t, tbl, cache, 2); sh <= or {
		t.Errorf("cache-mem sensitivity: shopping %v <= ordering %v", sh, or)
	}
	dq := rowOf("MySQLDelayedQueue")
	if sh, or := cellF(t, tbl, dq, 1), cellF(t, tbl, dq, 2); or <= sh {
		t.Errorf("delayed-queue sensitivity: ordering %v <= shopping %v", or, sh)
	}
}

func TestFig9TopNSavesTime(t *testing.T) {
	tbl := quick(t, "fig9")
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig9 rows = %d, want 4", len(tbl.Rows))
	}
	for _, col := range []int{1, 3} { // shopping time, ordering time
		n1, n10 := cellF(t, tbl, 0, col), cellF(t, tbl, 3, col)
		if n10 <= n1 {
			t.Errorf("fig9 col %d: time at n=10 (%v) not above n=1 (%v)", col, n10, n1)
		}
	}
	// WIPS at n=3 within 15% of n=10's for both workloads.
	for _, col := range []int{2, 4} {
		p3, p10 := cellF(t, tbl, 1, col), cellF(t, tbl, 3, col)
		if p3 < 0.85*p10 {
			t.Errorf("fig9 col %d: n=3 WIPS %v lost more than 15%% vs n=10 %v", col, p3, p10)
		}
	}
}

func TestTable1ImprovedKernelSmootherTuning(t *testing.T) {
	tbl := quick(t, "table1")
	if len(tbl.Rows) != 4 {
		t.Fatalf("table1 rows = %d, want 4", len(tbl.Rows))
	}
	// Rows: shopping/original, shopping/improved, ordering/original,
	// ordering/improved. Improved must raise the worst-seen WIPS, cut the
	// wall-clock convergence time, and keep similar final performance.
	for _, base := range []int{0, 2} {
		worstOrig, worstImpr := cellF(t, tbl, base, 5), cellF(t, tbl, base+1, 5)
		if worstImpr < worstOrig {
			t.Errorf("%s: improved worst %v < original %v", tbl.Cell(base, 0), worstImpr, worstOrig)
		}
		secsOrig, secsImpr := cellF(t, tbl, base, 4), cellF(t, tbl, base+1, 4)
		if secsImpr >= secsOrig {
			t.Errorf("%s: improved convergence time %v s not below original %v s",
				tbl.Cell(base, 0), secsImpr, secsOrig)
		}
		perfOrig, perfImpr := cellF(t, tbl, base, 2), cellF(t, tbl, base+1, 2)
		if perfImpr < 0.9*perfOrig {
			t.Errorf("%s: improved final WIPS %v lost more than 10%% vs %v", tbl.Cell(base, 0), perfImpr, perfOrig)
		}
	}
}

func TestTable2PriorHistoriesHelp(t *testing.T) {
	tbl := quick(t, "table2")
	if len(tbl.Rows) != 4 {
		t.Fatalf("table2 rows = %d, want 4", len(tbl.Rows))
	}
	// Rows: shopping/without, shopping/with, ordering/without, ordering/with.
	for _, base := range []int{0, 2} {
		convWithout, convWith := cellF(t, tbl, base, 2), cellF(t, tbl, base+1, 2)
		if convWith >= convWithout {
			t.Errorf("%s: with-history convergence %v not below without %v",
				tbl.Cell(base, 0), convWith, convWithout)
		}
		badWithout, badWith := cellF(t, tbl, base, 4), cellF(t, tbl, base+1, 4)
		if badWith > badWithout {
			t.Errorf("%s: with-history bad iterations %v above without %v",
				tbl.Cell(base, 0), badWith, badWithout)
		}
		evalsWithout, evalsWith := cellF(t, tbl, base, 5), cellF(t, tbl, base+1, 5)
		if evalsWith > evalsWithout {
			t.Errorf("%s: with-history measurements %v above without %v",
				tbl.Cell(base, 0), evalsWith, evalsWithout)
		}
	}
}

func TestAppendixBRestrictionShrinksSpace(t *testing.T) {
	tbl := quick(t, "appB")
	if len(tbl.Rows) != 2 {
		t.Fatalf("appB rows = %d, want 2 scenarios", len(tbl.Rows))
	}
	for row := range tbl.Rows {
		restricted := cellF(t, tbl, row, 1)
		unrestricted := cellF(t, tbl, row, 2)
		if restricted >= unrestricted {
			t.Errorf("%s: restricted size %v not below unrestricted %v",
				tbl.Cell(row, 0), restricted, unrestricted)
		}
	}
}

func TestMotivatingClimateBalancingWins(t *testing.T) {
	tbl := quick(t, "motivating-climate")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 scenarios", len(tbl.Rows))
	}
	for row := range tbl.Rows {
		even, tuned := cellF(t, tbl, row, 1), cellF(t, tbl, row, 2)
		if tuned <= even {
			t.Errorf("%s: tuned %v not above even split %v", tbl.Cell(row, 0), tuned, even)
		}
	}
	// The balanced-scenario configuration underperforms on the skewed
	// scenarios (why retuning per workload matters).
	for _, row := range []int{1, 2} {
		tuned, stale := cellF(t, tbl, row, 2), cellF(t, tbl, row, 3)
		if stale >= tuned {
			t.Errorf("%s: stale configuration %v not below freshly tuned %v",
				tbl.Cell(row, 0), stale, tuned)
		}
	}
}

func TestBaselineSearchShapes(t *testing.T) {
	tbl := quick(t, "baseline-search")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 algorithms", len(tbl.Rows))
	}
	// Rows: extreme, distributed, powell, random. Powell starts from the
	// defaults and sweeps one direction at a time, so its initial window
	// never probes catastrophic corners.
	extremeWorst := cellF(t, tbl, 0, 3)
	powellWorst := cellF(t, tbl, 2, 3)
	if powellWorst <= extremeWorst {
		t.Errorf("powell worst-initial %v not above extreme-init %v", powellWorst, extremeWorst)
	}
	// Every informed algorithm clearly beats nothing-at-all? Random can get
	// lucky; only require all bests within a sane band.
	for row := 0; row < 4; row++ {
		if best := cellF(t, tbl, row, 1); best < 60 || best > 140 {
			t.Errorf("%s best WIPS %v outside sanity band", tbl.Cell(row, 0), best)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"ablation-cache", "ablation-deltav", "ablation-estimate", "ablation-init"} {
		tbl := quick(t, id)
		if len(tbl.Rows) < 2 {
			t.Errorf("%s rows = %d, want >= 2", id, len(tbl.Rows))
		}
	}
}

func TestAblationInitDistributedSmoother(t *testing.T) {
	tbl := quick(t, "ablation-init")
	// Row 0 extreme, row 1 distributed; distributed's mean worst-seen must
	// be far above extreme's.
	we, wd := cellF(t, tbl, 0, 2), cellF(t, tbl, 1, 2)
	if wd <= we {
		t.Errorf("distributed worst-seen %v not above extreme %v", wd, we)
	}
}

func TestMotivatingSciLibVersionSelection(t *testing.T) {
	tbl := quick(t, "motivating-scilib")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 matrix classes", len(tbl.Rows))
	}
	wantVersion := map[string]string{
		"sparse 5%":        "csr",
		"lower triangular": "triangular",
		"banded (hb=4)":    "csr", // banded is sparse enough for CSR to win
	}
	for row := range tbl.Rows {
		name := tbl.Cell(row, 0)
		if want, ok := wantVersion[name]; ok {
			if got := tbl.Cell(row, 1); got != want {
				t.Errorf("%s: tuned version %q, want %q", name, got, want)
			}
			if saving := cellF(t, tbl, row, 4); saving <= 0 {
				t.Errorf("%s: no saving over naive (%v%%)", name, saving)
			}
		}
	}
}
