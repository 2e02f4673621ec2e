package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fillvoid/internal/mathutil"
)

// eachLeafKernel runs f as one subtest per leaf kernel this host has,
// widest first, each named after its kernel, and restores the detected
// kernel afterwards.
func eachLeafKernel(t *testing.T, f func(t *testing.T)) {
	detected := leaf
	defer func() { leaf = detected }()
	for _, k := range hostLeafKernels {
		leaf = k
		t.Run(k.name, f)
	}
}

// leafCase is one leaf's coordinates, a query and a bound.
type leafCase struct {
	name       string
	xs, ys, zs []float64
	q          mathutil.Vec3
	bound      float64
}

// leafCases builds maxLeaf-point leaves whose prefixes cover every
// tail length: uniform points, exact ties at the bound, signed zeros,
// NaN coordinates and bounds, and coordinates whose squares overflow
// to +Inf or underflow to subnormals and zero.
func leafCases() []leafCase {
	rng := rand.New(rand.NewSource(7))
	mk := func(name string, q mathutil.Vec3, bound float64, coord func(i, axis int) float64) leafCase {
		c := leafCase{name: name, q: q, bound: bound, xs: make([]float64, maxLeaf), ys: make([]float64, maxLeaf), zs: make([]float64, maxLeaf)}
		for i := 0; i < maxLeaf; i++ {
			c.xs[i], c.ys[i], c.zs[i] = coord(i, 0), coord(i, 1), coord(i, 2)
		}
		return c
	}
	uniform := func(int, int) float64 { return rng.Float64() }
	// Lattice points one step from the query on one axis, or on the
	// query itself: distances 0 and 1 exactly.
	ties := func(i, axis int) float64 {
		if i%7 == axis {
			return float64(1 - 2*(i%2))
		}
		return 0
	}
	negZero := math.Copysign(0, -1)
	zeros := func(i, axis int) float64 {
		if (i>>axis)&1 == 1 {
			return negZero
		}
		return 0
	}
	nan := math.NaN()
	nans := func(i, axis int) float64 {
		if i%5 == axis {
			return nan
		}
		return rng.Float64()
	}
	extremes := []float64{1e300, -1e300, 1e154, 1.5e-154, 1e-160, -1e-170, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), 0}
	extreme := func(int, int) float64 { return extremes[rng.Intn(len(extremes))] }
	half := mathutil.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	return []leafCase{
		mk("uniform", half, 0.25, uniform),
		mk("uniform-inf-bound", half, math.Inf(1), uniform),
		mk("uniform-neg-bound", half, -1, uniform),
		mk("ties", mathutil.Vec3{}, 1, ties),
		mk("ties-zero-bound", mathutil.Vec3{}, 0, ties),
		mk("signed-zeros", mathutil.Vec3{X: negZero, Z: negZero}, 0, zeros),
		mk("signed-zeros-neg-zero-bound", mathutil.Vec3{Y: negZero}, negZero, zeros),
		mk("nan-coordinates", half, 0.3, nans),
		mk("nan-bound", half, nan, uniform),
		mk("nan-query", mathutil.Vec3{X: nan, Y: nan, Z: nan}, 1, uniform),
		mk("extremes", mathutil.Vec3{X: 1e-300, Y: -2e154, Z: 0}, 1e300, extreme),
		mk("extremes-inf-bound", mathutil.Vec3{X: 1e-300, Y: -2e154, Z: 0}, math.Inf(1), extreme),
		mk("tiny", mathutil.Vec3{X: 1e-160, Y: -1e-160, Z: 3e-162}, 1e-318, func(int, int) float64 { return rng.Float64() * 1e-159 }),
	}
}

// TestLeafKernelsMatchScalar pins every leaf kernel to the scalar
// expression on every tail length from 1 to maxLeaf: each distance has
// the bits of (dx*dx + dy*dy) + dz*dz, and the mask has bit i set
// exactly when !(d2 > bound), no bit at or past n, so a kernel that
// fused a multiply-add, used an ordered or inclusive predicate, or let
// a tail lane through fails here.
func TestLeafKernelsMatchScalar(t *testing.T) {
	cases := leafCases()
	eachLeafKernel(t, func(t *testing.T) {
		for _, c := range cases {
			for n := 1; n <= maxLeaf; n++ {
				var d2 [maxLeaf]float64
				mask := leaf.scan(c.xs[:n], c.ys[:n], c.zs[:n], c.q, c.bound, &d2)
				for i := 0; i < n; i++ {
					dx := c.xs[i] - c.q.X
					dy := c.ys[i] - c.q.Y
					dz := c.zs[i] - c.q.Z
					want := dx*dx + dy*dy + dz*dz
					if math.Float64bits(d2[i]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d: d2[%d] = %#x (%g), scalar %#x (%g)", c.name, n, i, math.Float64bits(d2[i]), d2[i], math.Float64bits(want), want)
					}
					if got, pass := mask>>i&1 == 1, !(want > c.bound); got != pass {
						t.Fatalf("%s n=%d: mask bit %d = %v, !(%g > %g) = %v", c.name, n, i, got, want, c.bound, pass)
					}
				}
				if n < maxLeaf && mask>>n != 0 {
					t.Fatalf("%s n=%d: mask %#x has bits past the leaf", c.name, n, mask)
				}
			}
		}
	})
}

// TestSearchMatchesBruteForceOnEveryKernel runs k-NN searches through
// each leaf kernel, with its own leaf size, against exhaustive search:
// tie-heavy clouds across one and many leaves, single queries and
// warm-started batches, and a one-leaf cloud queried from far away,
// where the bound starts at +Inf and tightens at nearly every point of
// the leaf, so most points the kernel masked in must fail the live
// bound when offered.
func TestSearchMatchesBruteForceOnEveryKernel(t *testing.T) {
	eachLeafKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(300)
			pts := randomCloud(rng, n)
			k := 1 + rng.Intn(14)
			q := mathutil.Vec3{X: rng.Float64()*2 - 0.5, Y: rng.Float64()*2 - 0.5, Z: rng.Float64()*2 - 0.5}
			checkKNN(t, pts, q, k)
			checkBatch(t, Build(pts), pts, append([]mathutil.Vec3{q}, pts...), k)
		}
		line := make([]mathutil.Vec3, maxLeaf)
		for i := range line {
			line[i] = mathutil.Vec3{X: float64(i) / maxLeaf, Y: 0.25, Z: float64(i%3) / 8}
		}
		for _, k := range []int{1, 3, maxLeaf} {
			checkKNN(t, line, mathutil.Vec3{X: 40, Y: -3, Z: 0.5}, k)
			checkKNN(t, line, mathutil.Vec3{X: -40, Y: 3, Z: 0.5}, k)
		}
	})
}

// BenchmarkKNearestGridNodes times k-NN over every node of a 62×62×12
// unit-cube grid against a seeded 1 % cloud, once per leaf kernel this
// host has, both ways grid nodes have been searched: tree, warm-started
// KNearestBatchInto in raster order, and patch, KNearestPatchInto over
// each plane, the neighbour pass's way. It reports ns/query.
func BenchmarkKNearestGridNodes(b *testing.B) {
	const nx, ny, nz = 62, 62, 12
	var nodes []mathutil.Vec3
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				nodes = append(nodes, mathutil.Vec3{X: float64(i) / (nx - 1), Y: float64(j) / (ny - 1), Z: float64(k) / (nz - 1)})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]mathutil.Vec3, len(nodes)/100)
	for i := range pts {
		pts[i] = mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	tree := Build(pts)
	detected := leaf
	defer func() { leaf = detected }()
	for _, kern := range hostLeafKernels {
		for _, k := range []int{5, 12} {
			out := make([]Neighbor, len(nodes)*k)
			b.Run(fmt.Sprintf("%s/tree/k=%d", kern.name, k), func(b *testing.B) {
				leaf = kern
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tree.KNearestBatchInto(nodes, k, 1, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nodes)), "ns/query")
			})
			b.Run(fmt.Sprintf("%s/patch/k=%d", kern.name, k), func(b *testing.B) {
				leaf = kern
				var blk Block
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for z := 0; z < nz; z++ {
						lo, hi := z*nx*ny, (z+1)*nx*ny
						tree.KNearestPatchInto(nodes[lo:hi], nx, k, out[lo*k:hi*k], &blk)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nodes)), "ns/query")
			})
		}
	}
}
