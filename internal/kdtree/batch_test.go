package kdtree

import (
	"math"
	"testing"

	"fillvoid/internal/mathutil"
)

func TestKNearestBatchIntoMatchesSingle(t *testing.T) {
	pts := randomPoints(800, 12)
	tree := Build(pts)
	queries := randomPoints(137, 13)
	const k = 5
	flat := tree.KNearestBatchInto(queries, k, 4, make([]Neighbor, len(queries)*k))
	if len(flat) != len(queries)*k {
		t.Fatalf("flat length %d, want %d", len(flat), len(queries)*k)
	}
	for i, q := range queries {
		sameNeighbors(t, flat[i*k:(i+1)*k], tree.KNearest(q, k))
	}
}

func TestKNearestBatchIntoPadsShortTrees(t *testing.T) {
	pts := randomPoints(3, 7)
	tree := Build(pts)
	queries := randomPoints(4, 8)
	const k = 5
	flat := tree.KNearestBatchInto(queries, k, 1, make([]Neighbor, len(queries)*k))
	for i := range queries {
		for j := 0; j < k; j++ {
			nb := flat[i*k+j]
			if j < 3 {
				if nb.Index < 0 || math.IsInf(nb.Dist2, 1) {
					t.Fatalf("query %d rank %d: unexpected padding %+v", i, j, nb)
				}
			} else if nb.Index != -1 || !math.IsInf(nb.Dist2, 1) {
				t.Fatalf("query %d rank %d: want padding, got %+v", i, j, nb)
			}
		}
	}
}

func TestKNearestBatchIntoBufferTooSmall(t *testing.T) {
	tree := Build(randomPoints(10, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer did not panic")
		}
	}()
	tree.KNearestBatchInto(randomPoints(2, 2), 5, 1, make([]Neighbor, 9))
}

// TestKNearestIntoZeroAllocs pins the satellite guarantee: with
// cap(buf) >= k a query performs no heap allocation, and the serial
// batched entry point inherits that.
func TestKNearestIntoZeroAllocs(t *testing.T) {
	pts := randomPoints(4096, 21)
	tree := Build(pts)
	q := mathutil.Vec3{X: 0.41, Y: 0.58, Z: 0.27}
	const k = 5
	buf := make([]Neighbor, k)
	if n := testing.AllocsPerRun(200, func() {
		tree.KNearestInto(q, k, buf[:0])
	}); n != 0 {
		t.Errorf("KNearestInto: %v allocs/op, want 0", n)
	}

	queries := randomPoints(64, 22)
	flat := make([]Neighbor, len(queries)*k)
	if n := testing.AllocsPerRun(50, func() {
		tree.KNearestBatchInto(queries, k, 1, flat)
	}); n != 0 {
		t.Errorf("KNearestBatchInto(workers=1): %v allocs/op, want 0", n)
	}

	// Nearest has its own 1-NN traversal precisely so the per-grid-node
	// table build in the recon engine stays allocation-free.
	if n := testing.AllocsPerRun(200, func() {
		tree.Nearest(q)
	}); n != 0 {
		t.Errorf("Nearest: %v allocs/op, want 0", n)
	}
}

// TestNearestMatchesKNearest pins the dedicated 1-NN traversal to the
// general k-NN path.
func TestNearestMatchesKNearest(t *testing.T) {
	tree := Build(randomPoints(700, 41))
	for _, q := range randomPoints(200, 42) {
		gi, gd := tree.Nearest(q)
		want := tree.KNearest(q, 1)
		if gi != want[0].Index || gd != want[0].Dist2 {
			t.Fatalf("Nearest(%v) = (%d, %g), KNearest = (%d, %g)",
				q, gi, gd, want[0].Index, want[0].Dist2)
		}
	}
	if i, d := (&Tree{}).Nearest(mathutil.Vec3{}); i != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty tree Nearest = (%d, %g)", i, d)
	}
}

func BenchmarkKNearestInto(b *testing.B) {
	tree := Build(randomPoints(1<<16, 31))
	q := mathutil.Vec3{X: 0.3, Y: 0.7, Z: 0.5}
	buf := make([]Neighbor, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNearestInto(q, 5, buf[:0])
	}
}

func BenchmarkKNearestBatchInto(b *testing.B) {
	tree := Build(randomPoints(1<<16, 31))
	queries := randomPoints(512, 32)
	flat := make([]Neighbor, len(queries)*5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNearestBatchInto(queries, 5, 1, flat)
	}
}
