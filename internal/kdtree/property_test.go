package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fillvoid/internal/mathutil"
)

// bruteNeighbors is the reference implementation: compute every
// distance, sort by (dist2, index). The tree computes distances with
// the same expression as mathutil.Vec3.Dist2, so the comparisons below
// are bit-exact, not tolerance-based.
func bruteNeighbors(points []mathutil.Vec3, q mathutil.Vec3) []Neighbor {
	out := make([]Neighbor, len(points))
	for i, p := range points {
		out[i] = Neighbor{Index: i, Dist2: p.Dist2(q)}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist2 != out[b].Dist2 {
			return out[a].Dist2 < out[b].Dist2
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// bruteKNN is the canonical k-NN list by exhaustive search: the first
// min(k, n) entries of bruteNeighbors, none for k <= 0.
func bruteKNN(points []mathutil.Vec3, q mathutil.Vec3, k int) []Neighbor {
	return bruteNeighbors(points, q)[:max(0, min(k, len(points)))]
}

// sameNeighbors fails unless got equals want index for index, with
// bit-identical distances.
func sameNeighbors(t *testing.T, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d neighbors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// checkBatch runs KNearestBatchInto over queries at workers 1 and 3 and
// checks every query's window against brute force: the canonical list,
// then {-1, +Inf} padding up to k.
func checkBatch(t *testing.T, tree *Tree, points, queries []mathutil.Vec3, k int) {
	t.Helper()
	wants := make([][]Neighbor, len(queries))
	for i, q := range queries {
		wants[i] = bruteKNN(points, q, k)
	}
	for _, workers := range []int{1, 3} {
		flat := tree.KNearestBatchInto(queries, k, workers, make([]Neighbor, len(queries)*k))
		for i, want := range wants {
			window := flat[i*k : (i+1)*k]
			sameNeighbors(t, window[:len(want)], want)
			for j, nb := range window[len(want):] {
				if nb.Index != -1 || !math.IsInf(nb.Dist2, 1) {
					t.Fatalf("workers=%d query %d rank %d: want padding, got %+v", workers, i, len(want)+j, nb)
				}
			}
		}
	}
}

// checkKNN verifies one KNearest call against brute force. Results are
// canonical (ascending Dist2, then ascending Index), so the list must
// equal the exhaustive one exactly, boundary ties included: its length
// is min(k, n) and every index and distance bit matches.
func checkKNN(t *testing.T, points []mathutil.Vec3, q mathutil.Vec3, k int) {
	t.Helper()
	sameNeighbors(t, Build(points).KNearest(q, k), bruteKNN(points, q, k))
}

// randomCloud draws n points from one of several degenerate-prone
// shapes: uniform box, tight cluster with duplicates, axis-aligned
// plane (every z equal — maximal split-axis ties), and integer lattice
// (massive exact distance ties).
func randomCloud(rng *rand.Rand, n int) []mathutil.Vec3 {
	pts := make([]mathutil.Vec3, n)
	switch rng.Intn(4) {
	case 0: // uniform
		for i := range pts {
			pts[i] = mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
	case 1: // duplicates: draw from a tiny pool
		pool := make([]mathutil.Vec3, 1+rng.Intn(4))
		for i := range pool {
			pool[i] = mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		for i := range pts {
			pts[i] = pool[rng.Intn(len(pool))]
		}
	case 2: // flat plane
		for i := range pts {
			pts[i] = mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: 0.5}
		}
	default: // small integer lattice
		for i := range pts {
			pts[i] = mathutil.Vec3{X: float64(rng.Intn(3)), Y: float64(rng.Intn(3)), Z: float64(rng.Intn(3))}
		}
	}
	return pts
}

// TestKNearestDegenerateClouds is the randomized property test over
// tie-heavy cloud shapes: across shapes, sizes, and k (including
// k > n and k = n), tree results agree with exhaustive search. The
// uniform-cloud sweep lives in TestKNearestMatchesBruteForce; this one
// exists because ties (duplicates, lattices, flat planes) exercise the
// canonical tie-break, pruning at equal distances and the split-axis
// choice in ways uniform random points essentially never do. Each
// cloud is also queried as a batch (the query, then its points in
// order) to exercise the warm start.
func TestKNearestDegenerateClouds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		pts := randomCloud(rng, n)
		k := 1 + rng.Intn(n+5) // deliberately allowed to exceed n
		var q mathutil.Vec3
		if rng.Intn(3) == 0 {
			q = pts[rng.Intn(n)] // query coincident with an indexed point
		} else {
			q = mathutil.Vec3{X: rng.Float64()*2 - 0.5, Y: rng.Float64()*2 - 0.5, Z: rng.Float64()*2 - 0.5}
		}
		checkKNN(t, pts, q, k)
		checkBatch(t, Build(pts), pts, append([]mathutil.Vec3{q}, pts...), k)
	}
}

// TestKNearestDegenerateInputs pins the explicit edge cases separately
// from the randomized sweep so a failure names the case directly.
func TestKNearestDegenerateInputs(t *testing.T) {
	q := mathutil.Vec3{X: 0.3, Y: 0.3, Z: 0.3}

	t.Run("k negative", func(t *testing.T) {
		pts := []mathutil.Vec3{{X: 1}}
		if got := Build(pts).KNearest(q, -2); len(got) != 0 {
			t.Fatalf("k<0 returned %d neighbors", len(got))
		}
	})
	t.Run("single point", func(t *testing.T) {
		checkKNN(t, []mathutil.Vec3{{X: 9, Y: 9, Z: 9}}, q, 4)
	})
	t.Run("all points identical", func(t *testing.T) {
		pts := make([]mathutil.Vec3, 17)
		for i := range pts {
			pts[i] = mathutil.Vec3{X: 1, Y: 2, Z: 3}
		}
		checkKNN(t, pts, q, 5)
		checkKNN(t, pts, mathutil.Vec3{X: 1, Y: 2, Z: 3}, 17)
	})
	t.Run("k far exceeds n", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		checkKNN(t, randomCloud(rng, 7), q, 100)
	})
}

// TestKNearestGridNodes samples the nodes of anisotropic regular grids
// and queries every node in raster order, as the reconstruction
// workloads do. Grid nodes tie exactly and often: on the dyadic grid
// every distance is exact, on the decimal one the rounded node
// coordinates make ties and near-ties. KNearestInto and
// KNearestBatchInto must both return the canonical list.
func TestKNearestGridNodes(t *testing.T) {
	for _, g := range []struct {
		name            string
		nx, ny, nz      int
		origin, spacing mathutil.Vec3
	}{
		{"dyadic", 21, 13, 6, mathutil.Vec3{}, mathutil.Vec3{X: 0.5, Y: 0.25, Z: 2}},
		{"decimal", 19, 15, 7, mathutil.Vec3{X: -1.3, Y: 0.7, Z: 2.1}, mathutil.Vec3{X: 0.1, Y: 0.3, Z: 0.7}},
	} {
		t.Run(g.name, func(t *testing.T) {
			var nodes []mathutil.Vec3
			for k := 0; k < g.nz; k++ {
				for j := 0; j < g.ny; j++ {
					for i := 0; i < g.nx; i++ {
						nodes = append(nodes, mathutil.Vec3{
							X: g.origin.X + float64(i)*g.spacing.X,
							Y: g.origin.Y + float64(j)*g.spacing.Y,
							Z: g.origin.Z + float64(k)*g.spacing.Z,
						})
					}
				}
			}
			rng := rand.New(rand.NewSource(17))
			var pts []mathutil.Vec3
			for _, p := range nodes {
				if rng.Intn(20) == 0 {
					pts = append(pts, p)
				}
			}
			tree := Build(pts)
			for _, k := range []int{1, 5, 12} {
				buf := make([]Neighbor, 0, k)
				for _, q := range nodes {
					sameNeighbors(t, tree.KNearestInto(q, k, buf), bruteKNN(pts, q, k))
				}
				checkBatch(t, tree, pts, nodes, k)
			}
		})
	}
}
