package recon_test

import (
	"math"
	"testing"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/recon"
)

// NodeOf inverts Point exactly: every node maps back to its index, and
// anything that is not bit for bit a node position (one ulp off, half a
// cell off, outside the grid, NaN) is no node.
func TestNodeOfInvertsPoint(t *testing.T) {
	spec := recon.GridSpec{
		NX: 11, NY: 7, NZ: 1,
		Origin:  mathutil.Vec3{X: -1.3, Y: 0.7, Z: 2},
		Spacing: mathutil.Vec3{X: 0.1, Y: 1.0 / 3, Z: 0.25},
	}
	for k := 0; k < spec.NZ; k++ {
		for j := 0; j < spec.NY; j++ {
			for i := 0; i < spec.NX; i++ {
				p := spec.Point(i, j, k)
				gi, gj, gk, ok := spec.NodeOf(p)
				if !ok || gi != i || gj != j || gk != k {
					t.Fatalf("NodeOf(Point(%d,%d,%d)) = (%d,%d,%d,%v)", i, j, k, gi, gj, gk, ok)
				}
				off := p
				off.X = math.Nextafter(p.X, math.Inf(1))
				if _, _, _, ok := spec.NodeOf(off); ok {
					t.Fatalf("%v, one ulp off node (%d,%d,%d), taken for a node", off, i, j, k)
				}
			}
		}
	}
	for _, p := range []mathutil.Vec3{
		spec.Point(5, 3, 0).Add(mathutil.Vec3{X: 0.05}),
		spec.Point(-1, 0, 0),
		spec.Point(0, spec.NY, 0),
		spec.Point(0, 0, 1),
		{X: math.NaN(), Y: 0.7, Z: 2},
	} {
		if i, j, k, ok := spec.NodeOf(p); ok {
			t.Fatalf("%v taken for node (%d,%d,%d)", p, i, j, k)
		}
	}
}
