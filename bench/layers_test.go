package main

import "testing"

// BenchmarkLayers runs every layer micro-benchmark the traced run folds into
// its layer report, one sub-benchmark per public call:
//
//	go test -run '^$' -bench . -benchmem
//
// ns/op is per call of the loop body; ns/unit divides by the units of work
// the body reports (evaluations, for the simplex searches).
func BenchmarkLayers(b *testing.B) {
	for _, m := range micros {
		b.Run(m.metric, func(b *testing.B) {
			op, cleanup, err := m.setup(1, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				if err := cleanup(); err != nil {
					b.Error(err)
				}
			})
			b.ResetTimer()
			units := op(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(units), "ns/unit")
		})
	}
}
