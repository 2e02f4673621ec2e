package interp

import (
	"context"
	"testing"

	"fillvoid/internal/recon"
)

// BenchmarkWarmFullGrid times linear and natural neighbour over the
// full 62×62×12 grid of a 1 % Isabel-analog cloud (461 samples) at one
// worker, on a plan that already holds the Delaunay mesh and the
// nearest table: the query cost alone, without the build.
func BenchmarkWarmFullGrid(b *testing.B) {
	for _, m := range []Reconstructor{&Linear{Workers: 1}, &NaturalNeighbor{Workers: 1}} {
		b.Run(m.Name(), func(b *testing.B) {
			p := pinCloud{1, 7, 0.01}.plan(b)
			full := recon.Full(p.Spec())
			dst := make([]float64, full.Len())
			ctx := context.Background()
			if err := m.ReconstructRegion(ctx, p, full, dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.ReconstructRegion(ctx, p, full, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
