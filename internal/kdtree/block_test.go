package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/sampling"
)

// exhaustiveKNN writes q's canonical k-NN list over points to out[:k]
// by exhaustive search: every distance computed as mathutil.Vec3.Dist2
// computes it, the first k in (Dist2, Index) order, then {-1, +Inf}
// padding. It selects instead of sorting, which gives the same list.
func exhaustiveKNN(points []mathutil.Vec3, q mathutil.Vec3, k int, out []Neighbor) {
	n := 0
	for i, p := range points {
		d2 := p.Dist2(q)
		j := n
		if n < k {
			n++
		} else if !before(d2, i, out[k-1]) {
			continue
		} else {
			j = k - 1
		}
		for ; j > 0 && before(d2, i, out[j-1]); j-- {
			out[j] = out[j-1]
		}
		out[j] = Neighbor{Index: i, Dist2: d2}
	}
	for ; n < k; n++ {
		out[n] = Neighbor{Index: -1, Dist2: math.Inf(1)}
	}
}

func before(d2 float64, i int, nb Neighbor) bool {
	if d2 != nb.Dist2 {
		return d2 < nb.Dist2
	}
	return i < nb.Index
}

// gridCase is a grid and a cloud: the positions GridSpec-style
// arithmetic gives its nodes, origin + i·spacing per axis.
type gridCase struct {
	name            string
	nx, ny, nz      int
	origin, spacing mathutil.Vec3
	points          []mathutil.Vec3
}

func (g gridCase) node(i, j, k int) mathutil.Vec3 {
	return mathutil.Vec3{
		X: g.origin.X + float64(i)*g.spacing.X,
		Y: g.origin.Y + float64(j)*g.spacing.Y,
		Z: g.origin.Z + float64(k)*g.spacing.Z,
	}
}

// patchCases are the grids the patch query must answer exactly: the
// Isabel analog on the benchmark's 62×62×12 grid at 0.1, 1 and 5 %
// (importance-sampled, so dense and sparse regions meet), an
// anisotropic decimal spacing with a negative step, a cloud packed into
// one corner (bricks far from it gather everything, bricks inside it
// halve), rows of 600 nodes, and clouds of fewer than 16 samples.
func patchCases(t testing.TB) []gridCase {
	var cases []gridCase
	v := datasets.Volume(datasets.NewIsabel(1), 62, 62, 12, 6)
	for _, frac := range []float64{0.001, 0.01, 0.05} {
		c, _, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", frac)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, gridCase{fmt.Sprintf("isabel-%g%%", frac*100), v.NX, v.NY, v.NZ, v.Origin, v.Spacing, c.Points})
	}
	rng := rand.New(rand.NewSource(5))
	uniform := func(n int, lo, hi mathutil.Vec3) []mathutil.Vec3 {
		pts := make([]mathutil.Vec3, n)
		for i := range pts {
			pts[i] = mathutil.Vec3{
				X: lo.X + rng.Float64()*(hi.X-lo.X),
				Y: lo.Y + rng.Float64()*(hi.Y-lo.Y),
				Z: lo.Z + rng.Float64()*(hi.Z-lo.Z),
			}
		}
		return pts
	}
	aniso := gridCase{name: "anisotropic", nx: 37, ny: 23, nz: 4, origin: mathutil.Vec3{X: -1.3, Y: 4.1, Z: 0.7}, spacing: mathutil.Vec3{X: 0.013, Y: -0.3, Z: 0.05}}
	aniso.points = uniform(90, aniso.node(-2, 25, -1), aniso.node(39, -2, 5))
	cases = append(cases, aniso)
	corner := gridCase{name: "corner-cluster", nx: 40, ny: 40, nz: 5, spacing: mathutil.Vec3{X: 0.025, Y: 0.025, Z: 0.25}}
	corner.points = uniform(300, mathutil.Vec3{}, mathutil.Vec3{X: 0.08, Y: 0.08, Z: 0.3})
	cases = append(cases, corner)
	wide := gridCase{name: "wide-rows", nx: 600, ny: 3, nz: 2, spacing: mathutil.Vec3{X: 1.0 / 599, Y: 0.5, Z: 1}}
	wide.points = uniform(40, mathutil.Vec3{}, mathutil.Vec3{X: 1, Y: 1, Z: 1})
	cases = append(cases, wide)
	few := gridCase{name: "fewer-than-k", nx: 9, ny: 7, nz: 2, spacing: mathutil.Vec3{X: 0.1, Y: 0.1, Z: 0.3}}
	few.points = uniform(3, mathutil.Vec3{}, mathutil.Vec3{X: 1, Y: 1, Z: 1})
	return append(cases, few)
}

// TestPatchMatchesBruteForceOnEveryKernel runs KNearestPatchInto over
// every node of each patchCases grid, on each leaf kernel, and checks
// every list against exhaustive search, index and distance bits alike,
// at k from 1 to 16. Each plane is asked as one whole-plane patch, as
// strips of whole rows up to 512 nodes or 512-node segments of longer
// rows (the neighbour pass's tiles), and every seventh node as a
// one-node patch.
func TestPatchMatchesBruteForceOnEveryKernel(t *testing.T) {
	ks := []int{1, 2, 5, 12, 16}
	for _, g := range patchCases(t) {
		t.Run(g.name, func(t *testing.T) { testPatch(t, g, ks) })
	}
}

// testPatch checks one grid against exhaustive search on every kernel.
func testPatch(t *testing.T, g gridCase, ks []int) {
	const kmax = 16
	nodes := make([]mathutil.Vec3, 0, g.nx*g.ny*g.nz)
	for k := 0; k < g.nz; k++ {
		for j := 0; j < g.ny; j++ {
			for i := 0; i < g.nx; i++ {
				nodes = append(nodes, g.node(i, j, k))
			}
		}
	}
	want := make([]Neighbor, len(nodes)*kmax)
	for n, q := range nodes {
		exhaustiveKNN(g.points, q, kmax, want[n*kmax:(n+1)*kmax])
	}
	tree := Build(g.points)
	plane := g.nx * g.ny
	eachLeafKernel(t, func(t *testing.T) {
		var b Block
		for _, k := range ks {
			// A kmax list's first k entries are the k list, padding
			// included.
			check := func(how string, first int, got []Neighbor) {
				t.Helper()
				for n := 0; n < len(got)/k; n++ {
					for r, w := range want[(first+n)*kmax : (first+n)*kmax+k] {
						if nb := got[n*k+r]; nb.Index != w.Index || math.Float64bits(nb.Dist2) != math.Float64bits(w.Dist2) {
							t.Fatalf("%s, %s, k=%d, node %d rank %d: got %+v, exhaustive %+v", g.name, how, k, first+n, r, nb, w)
						}
					}
				}
			}
			out := make([]Neighbor, plane*k)
			for z := 0; z < g.nz; z++ {
				first := z * plane
				qs := nodes[first : first+plane]
				tree.KNearestPatchInto(qs, g.nx, k, out, &b)
				check("whole plane", first, out)
				// Strips: whole rows up to 512 nodes, or 512-node
				// segments of one row when rows are longer.
				rows := max(1, 512/g.nx)
				for j := 0; j < g.ny; j += rows {
					for i := 0; i < g.nx; i += 512 {
						width, end := min(g.nx-i, 512), min(j+rows, g.ny)
						var strip []mathutil.Vec3
						for r := j; r < end; r++ {
							strip = append(strip, qs[r*g.nx+i:r*g.nx+i+width]...)
						}
						tree.KNearestPatchInto(strip, width, k, out, &b)
						for r := j; r < end; r++ {
							check("strip", first+r*g.nx+i, out[(r-j)*width*k:(r-j+1)*width*k])
						}
					}
				}
				for n := 0; n < plane; n += 7 {
					tree.KNearestPatchInto(qs[n:n+1], 1, k, out, &b)
					check("one node", first+n, out[:k])
				}
			}
		}
	})
}
