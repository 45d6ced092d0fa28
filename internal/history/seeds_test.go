package history

import (
	"fmt"
	"testing"

	"harmony/internal/search"
)

func seedSpace(t testing.TB) *search.Space {
	t.Helper()
	sp, err := search.NewSpace(
		search.Param{Name: "x", Min: 0, Max: 60, Step: 1},
		search.Param{Name: "y", Min: 0, Max: 60, Step: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// onGrid is the daemon's projection: a configuration seeds as it is when it
// lies on the space's grid.
func onGrid(space *search.Space) func(search.Config) (search.Config, bool) {
	return func(cfg search.Config) (search.Config, bool) { return cfg, space.Contains(cfg) }
}

func TestSeedsRankBestFirst(t *testing.T) {
	sp := seedSpace(t)
	e := &Experience{Direction: search.Maximize}
	e.AddRecord(search.Config{1, 1}, 10)
	e.AddRecord(search.Config{2, 2}, 50)
	e.AddRecord(search.Config{99, 2}, 90) // off the grid: skipped
	e.AddRecord(search.Config{3, 3}, 30)
	e.AddRecord(search.Config{1, 1}, 40) // a repeat keeps its best rank
	e.AddRecord(search.Config{4, 4}, 30) // ties rank newest first
	e.AddRecord(search.Config{5, 5}, 20)
	got := e.Seeds(sp, onGrid(sp), 4)
	if want := "[[2 2] [1 1] [4 4] [3 3]]"; fmt.Sprint(got) != want {
		t.Fatalf("Seeds = %v, want %v", got, want)
	}
}

func TestSeedsMinimize(t *testing.T) {
	sp := seedSpace(t)
	e := &Experience{Direction: search.Minimize}
	e.AddRecord(search.Config{1, 1}, 10)
	e.AddRecord(search.Config{2, 2}, 5)
	e.AddRecord(search.Config{3, 3}, 7)
	if got, want := fmt.Sprint(e.Seeds(sp, onGrid(sp), 2)), "[[2 2] [3 3]]"; got != want {
		t.Fatalf("Seeds = %v, want %v", got, want)
	}
}

func TestSeedsNoneProject(t *testing.T) {
	sp := seedSpace(t)
	e := &Experience{}
	e.AddRecord(search.Config{99, 99}, 10)
	if got := e.Seeds(sp, onGrid(sp), 3); got != nil {
		t.Fatalf("Seeds = %v, want nil when no record projects", got)
	}
	e.AddRecord(search.Config{1, 1}, 10)
	if got := e.Seeds(sp, onGrid(sp), 0); got != nil {
		t.Fatalf("Seeds(k=0) = %v, want nil", got)
	}
}

// TestSeedsFillSparse: fewer distinct records than k are completed with the
// distributed design's points, ranked by triangulation estimates. On a
// planar surface the estimates are exact, so records and estimates rank by
// their true values.
func TestSeedsFillSparse(t *testing.T) {
	sp := seedSpace(t)
	plane := func(c search.Config) float64 { return 100 + float64(c[0]) + 2*float64(c[1]) }
	e := &Experience{Direction: search.Maximize}
	for _, c := range []search.Config{{10, 10}, {20, 10}, {10, 20}, {20, 10}} {
		e.AddRecord(c, plane(c))
	}
	got := e.Seeds(sp, onGrid(sp), 4)
	// The design for a 2-d space of 0..60 is (10,30), (30,50), (50,10).
	if want := "[[30 50] [10 30] [50 10] [10 20]]"; fmt.Sprint(got) != want {
		t.Fatalf("Seeds = %v, want %v", got, want)
	}
	if got := e.Seeds(sp, onGrid(sp), 2); fmt.Sprint(got) != "[[10 20] [20 10]]" {
		t.Fatalf("Seeds(k=2) = %v, want the two best records and no fill", got)
	}
}

// TestSeedsAllocs pins the allocations of a rich experience's seeds (at
// least k distinct fitting records, so no fill): Best's copy and sort (4)
// and the seed list (1). Ranking stops at k and compares configurations in place;
// keying every record (Config.Key) would allocate per record.
func TestSeedsAllocs(t *testing.T) {
	sp := seedSpace(t)
	e := &Experience{Direction: search.Maximize}
	for i := 0; i < 64; i++ {
		e.AddRecord(search.Config{i % 61, (7 * i) % 61}, float64(i%5))
	}
	project := onGrid(sp)
	if n := len(e.Seeds(sp, project, 3)); n != 3 {
		t.Fatalf("Seeds returned %d configurations, want 3", n)
	}
	const want = 5
	if allocs := testing.AllocsPerRun(20, func() { e.Seeds(sp, project, 3) }); allocs != want {
		t.Errorf("Seeds on a rich experience allocated %v, want %d", allocs, want)
	}
}
