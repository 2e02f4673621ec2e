package cluster

import (
	"testing"

	"fillvoid/internal/recon"
)

// TestStitchReassemblesExactly: stitching per-shard outputs (each in
// box-local x-fastest order) must reproduce the flat region output of a
// single run, element for element.
func TestStitchReassemblesExactly(t *testing.T) {
	region := recon.Box(3, 1, 2, 15, 11, 9)
	value := func(i, j, k int) float64 { return float64(i) + 100*float64(j) + 10000*float64(k) }

	want := make([]float64, region.Len())
	for m := range want {
		i, j, k := region.Coords(m)
		want[m] = value(i, j, k)
	}

	for _, n := range []int{1, 2, 3, 5, 12} {
		got := make([]float64, region.Len())
		for _, shard := range region.Split(n) {
			src := make([]float64, shard.Len())
			for m := range src {
				i, j, k := shard.Coords(m)
				src[m] = value(i, j, k)
			}
			stitch(got, region, src, shard)
		}
		for m := range got {
			if got[m] != want[m] {
				t.Fatalf("n=%d: stitched[%d] = %g, want %g", n, m, got[m], want[m])
			}
		}
	}
}
