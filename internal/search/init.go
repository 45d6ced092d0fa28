package search

// InitStrategy produces the dim+1 vertices of the initial simplex.
//
// The paper's §4.1 contrasts the original Active Harmony initialization,
// which probes parameter extremes (Figure 1a), with the improved strategy
// that spreads the initial configurations evenly through the interior of
// the search space (Figure 1b).
type InitStrategy interface {
	// Initial returns dim+1 continuous points inside the space's bounds.
	Initial(space *Space) [][]float64
	// Name identifies the strategy in reports and benches.
	Name() string
}

// ExtremeInit reproduces the original Active Harmony initial exploration:
// vertex 0 sits at the all-minimum corner and vertex i+1 moves parameter i
// to its maximum. Every initial configuration therefore tests parameter
// extremes, which the paper identifies as the cause of the initial bad
// performance oscillation.
type ExtremeInit struct{}

// Name implements InitStrategy.
func (ExtremeInit) Name() string { return "extreme" }

// Initial implements InitStrategy.
func (ExtremeInit) Initial(space *Space) [][]float64 {
	dim := space.Dim()
	pts := simplexPoints(dim)
	for _, v := range pts {
		for j, p := range space.Params {
			v[j] = float64(p.Min)
		}
	}
	for i := 0; i < dim; i++ {
		pts[i+1][i] = float64(space.Params[i].Max)
	}
	return pts
}

// simplexPoints returns dim+1 points of dim coordinates, all backed by one
// array; each point's capacity ends at its length.
func simplexPoints(dim int) [][]float64 {
	n := dim + 1
	buf := make([]float64, n*dim)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = buf[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return pts
}

// DistributedInit implements the improved search refinement: the dim+1
// initial configurations are spread evenly through the whole space, with
// each parameter stepping 1/(dim+1) of its range per exploration, offset by
// half a cell to stay away from the boundaries.
//
// Concretely, vertex i sets parameter j to the fraction
//
//	((i + j) mod (dim+1) + 0.5) / (dim+1)
//
// of its range — a cyclic Latin design. The fraction matrix is a circulant
// with distinct entries, so the dim+1 points are affinely independent
// (the simplex is never degenerate) while every parameter still visits
// dim+1 evenly spaced interior levels across the initial explorations.
type DistributedInit struct{}

// Name implements InitStrategy.
func (DistributedInit) Name() string { return "distributed" }

// Initial implements InitStrategy.
func (DistributedInit) Initial(space *Space) [][]float64 {
	dim := space.Dim()
	n := dim + 1
	pts := simplexPoints(dim)
	for i, v := range pts {
		for j, p := range space.Params {
			frac := (float64((i+j)%n) + 0.5) / float64(n)
			v[j] = float64(p.Min) + frac*float64(p.Max-p.Min)
		}
	}
	return pts
}

// SeededInit wraps another strategy but replaces its leading vertices with
// caller-provided points (historical configurations from the experience
// database, §4.2). Repeated seeds are skipped, and missing vertices are
// filled from the fallback strategy.
type SeededInit struct {
	Seeds    [][]float64
	Fallback InitStrategy
}

// Name implements InitStrategy.
func (s SeededInit) Name() string { return "seeded+" + s.Fallback.Name() }

// Initial implements InitStrategy.
func (s SeededInit) Initial(space *Space) [][]float64 {
	dim := space.Dim()
	want := dim + 1
	pts := make([][]float64, 0, want)
	for _, seed := range s.Seeds {
		// A repeated seed (merged experiences can record one configuration
		// twice) would collapse the simplex by a dimension.
		if len(seed) != dim || containsPoint(pts, seed) {
			continue
		}
		pts = append(pts, append([]float64(nil), seed...))
		if len(pts) == want {
			return pts
		}
	}
	for _, fill := range s.Fallback.Initial(space) {
		if len(pts) == want {
			break
		}
		if containsPoint(pts, fill) {
			continue
		}
		pts = append(pts, fill)
	}
	return pts
}

func containsPoint(pts [][]float64, q []float64) bool {
	for _, p := range pts {
		same := true
		for i := range p {
			if p[i] != q[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
