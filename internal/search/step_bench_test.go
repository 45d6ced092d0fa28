package search_test

import (
	"math"
	"testing"

	"harmony/internal/search"
	"harmony/internal/webservice"
)

// BenchmarkSimplexStep times the simplex step layer: the kernel's own work
// between two client measurements. An op is one committed evaluation of a
// sequential kernel run over an objective that costs next to nothing, so
// ns/op and allocs/op are what the kernel adds to each exchange, its run's
// setup included. quad2 is the paper's two-parameter quadratic, web10 the
// ten-parameter web-cluster space with a smooth objective.
func BenchmarkSimplexStep(b *testing.B) {
	quad := search.MustSpace(
		search.Param{Name: "x", Min: 0, Max: 60, Step: 1},
		search.Param{Name: "y", Min: 0, Max: 60, Step: 1},
	)
	web := webservice.Space()
	var quads, webs []search.Objective
	for k := 0; k < 16; k++ {
		cx, cy := 5+3*k, 55-2*k
		quads = append(quads, search.ObjectiveFunc(func(cfg search.Config) float64 {
			dx, dy := float64(cfg[0]-cx), float64(cfg[1]-cy)
			return 1000 - dx*dx - dy*dy
		}))
		webs = append(webs, search.ObjectiveFunc(func(cfg search.Config) float64 {
			sum := 0.0
			for i, p := range web.Params {
				d := p.Normalize(cfg[i]) - float64((k+3*i)%10)/10
				sum += d * d
			}
			return 100 * math.Exp(-sum)
		}))
	}
	for _, c := range []struct {
		name   string
		space  *search.Space
		objs   []search.Objective
		budget int
	}{
		{"quad2", quad, quads, 40},
		{"web10", web, webs, 120},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for run, evals := 0, 0; evals < b.N; run++ {
				res, err := search.NelderMead(c.space, c.objs[run%len(c.objs)], search.NelderMeadOptions{
					Init: search.DistributedInit{}, Direction: search.Maximize, MaxEvals: c.budget,
				})
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evals
			}
		})
	}
}
