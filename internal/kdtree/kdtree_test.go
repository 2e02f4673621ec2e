package kdtree

import (
	"math"
	"testing"
	"testing/quick"

	"fillvoid/internal/mathutil"
)

func randomPoints(n int, seed int64) []mathutil.Vec3 {
	rng := mathutil.NewRNG(seed)
	pts := make([]mathutil.Vec3, n)
	for i := range pts {
		pts[i] = mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 100, 1000} {
		pts := randomPoints(n, int64(n))
		tree := Build(pts)
		rng := mathutil.NewRNG(99)
		for trial := 0; trial < 50; trial++ {
			q := mathutil.Vec3{X: rng.Float64() * 1.4, Y: rng.Float64() * 1.4, Z: rng.Float64() * 1.4}
			for _, k := range []int{1, 3, 5, n} {
				sameNeighbors(t, tree.KNearest(q, k), bruteKNN(pts, q, k))
			}
		}
	}
}

func TestKNearestSortedAscending(t *testing.T) {
	pts := randomPoints(500, 4)
	tree := Build(pts)
	f := func(x, y, z float64) bool {
		q := mathutil.Vec3{X: x, Y: y, Z: z}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		res := tree.KNearest(q, 10)
		for i := 1; i < len(res); i++ {
			if res[i].Dist2 < res[i-1].Dist2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestOnGridPoints(t *testing.T) {
	// Exact hits on indexed points return distance 0 and that index's
	// position.
	var pts []mathutil.Vec3
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				pts = append(pts, mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	tree := Build(pts)
	for i, p := range pts {
		gi, d2 := tree.Nearest(p)
		if d2 != 0 {
			t.Fatalf("point %d: dist2 %g", i, d2)
		}
		if pts[gi] != p {
			t.Fatalf("point %d: wrong match", i)
		}
	}
}

func TestNearestEmptyTree(t *testing.T) {
	tree := Build(nil)
	if i, d2 := tree.Nearest(mathutil.Vec3{}); i != -1 || !math.IsInf(d2, 1) {
		t.Fatalf("got %d, %g", i, d2)
	}
	if res := tree.KNearest(mathutil.Vec3{}, 3); len(res) != 0 {
		t.Fatalf("got %d results", len(res))
	}
	out := tree.KNearestBatchInto([]mathutil.Vec3{{}, {X: 1}}, 3, 1, make([]Neighbor, 6))
	for _, nb := range out {
		if nb.Index != -1 || !math.IsInf(nb.Dist2, 1) {
			t.Fatalf("empty tree batch = %v", out)
		}
	}
}

func TestKNearestZeroK(t *testing.T) {
	tree := Build(randomPoints(10, 1))
	if res := tree.KNearest(mathutil.Vec3{}, 0); len(res) != 0 {
		t.Fatal("k=0 should return nothing")
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many coincident points must not break the build or queries.
	pts := make([]mathutil.Vec3, 64)
	for i := range pts {
		pts[i] = mathutil.Vec3{X: 1, Y: 2, Z: 3}
	}
	tree := Build(pts)
	res := tree.KNearest(mathutil.Vec3{X: 1, Y: 2, Z: 3}, 10)
	if len(res) != 10 {
		t.Fatalf("got %d", len(res))
	}
	for i, nb := range res {
		if nb.Index != i || nb.Dist2 != 0 {
			t.Fatalf("rank %d: %+v, want the coincident point of index %d", i, nb, i)
		}
	}
}

func TestLargeParallelBuildConsistent(t *testing.T) {
	// Exercise the parallel build path (> parallelBuildThreshold).
	pts := randomPoints(40000, 5)
	tree := Build(pts)
	if tree.Len() != len(pts) {
		t.Fatalf("len %d", tree.Len())
	}
	rng := mathutil.NewRNG(6)
	for trial := 0; trial < 20; trial++ {
		q := mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		sameNeighbors(t, tree.KNearest(q, 5), bruteKNN(pts, q, 5))
	}
}
