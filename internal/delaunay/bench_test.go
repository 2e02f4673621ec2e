package delaunay

import (
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/sampling"
)

// BenchmarkBuild times Build on importance-sampled Isabel-analog clouds:
// the 62×62×12 grid at 1 % (461 points) and the full-resolution
// 250×250×50 analog at 1 % (31,250) and 5 % (156,250). Besides time,
// B/op and allocs/op it reports ns/point and the tetrahedra the
// insertions create per point (live and dead). The full-resolution
// cases generate a 3.1M-node volume first; select them with
// -bench 'Build/62x62x12' to skip it.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		div  int
		frac float64
	}{
		{"62x62x12/1%", 4, 0.01},
		{"250x250x50/1%", 1, 0.01},
		{"250x250x50/5%", 1, 0.05},
	} {
		b.Run(c.name, func(b *testing.B) {
			gen := datasets.NewIsabel(1)
			nx, ny, nz := gen.DefaultDims(c.div)
			v := datasets.Volume(gen, nx, ny, nz, 7)
			cloud, _, err := (&sampling.Importance{Seed: 1}).Sample(v, gen.FieldName(), c.frac)
			if err != nil {
				b.Fatal(err)
			}
			loose, err := build(cloud.Points, cloud.Values)
			if err != nil {
				b.Fatal(err)
			}
			n := float64(cloud.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cloud.Points, cloud.Values); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
			b.ReportMetric(float64(len(loose.tets))/n, "tets/point")
		})
	}
}
