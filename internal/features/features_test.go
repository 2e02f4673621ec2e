package features

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/sampling"
)

func testVolume() *grid.Volume {
	gen := datasets.NewIsabel(3)
	return datasets.Volume(gen, 16, 16, 8, 4)
}

func TestConfigWidths(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.K != 5 || !cfg.WithGradients {
		t.Fatalf("%+v", cfg)
	}
	if cfg.InputWidth() != 23 {
		t.Fatalf("input width %d, want the paper's 23", cfg.InputWidth())
	}
	if cfg.OutputWidth() != 4 {
		t.Fatalf("output width %d, want 4", cfg.OutputWidth())
	}
	noGrad := Config{K: 5}
	if noGrad.OutputWidth() != 1 {
		t.Fatal("without gradients the target is the scalar alone")
	}
	if (Config{K: 3}).InputWidth() != 15 {
		t.Fatal("InputWidth formula")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	b := mathutil.AABB{Min: mathutil.Vec3{X: -2, Y: 0, Z: 10}, Max: mathutil.Vec3{X: 2, Y: 8, Z: 11}}
	n := NewNormalizer(b, -50, 150)
	if got := n.Point(b.Min); got != (mathutil.Vec3{}) {
		t.Fatalf("min -> %+v", got)
	}
	if got := n.Point(b.Max); got != (mathutil.Vec3{X: 1, Y: 1, Z: 1}) {
		t.Fatalf("max -> %+v", got)
	}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e9 {
			return true
		}
		return math.Abs(n.Denorm(n.Value(v))-v) < 1e-9*(math.Abs(v)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizerDegenerateRanges(t *testing.T) {
	n := NewNormalizer(mathutil.AABB{}, 5, 5)
	if n.ValScale != 1 {
		t.Fatal("degenerate value range should get scale 1")
	}
	if n.PosScale != (mathutil.Vec3{X: 1, Y: 1, Z: 1}) {
		t.Fatal("degenerate box should get scale 1")
	}
}

func TestGradientScaling(t *testing.T) {
	b := mathutil.AABB{Max: mathutil.Vec3{X: 2, Y: 2, Z: 2}}
	n := NewNormalizer(b, 0, 10)
	g := n.Gradient(mathutil.Vec3{X: 5, Y: 0, Z: 0})
	// dval/dx = 5 per world unit = 10 per normalized unit = 1.0 after
	// value scaling (/10).
	if math.Abs(g.X-1) > 1e-12 {
		t.Fatalf("gx=%g", g.X)
	}
	n.GradScale = 0.5
	g = n.Gradient(mathutil.Vec3{X: 5, Y: 0, Z: 0})
	if math.Abs(g.X-0.5) > 1e-12 {
		t.Fatalf("scaled gx=%g", g.X)
	}
}

func TestFitGradScale(t *testing.T) {
	v := testVolume()
	norm := NewNormalizer(v.Bounds(), v.Stats().Min(), v.Stats().Max())
	idxs := make([]int, v.Len())
	for i := range idxs {
		idxs[i] = i
	}
	norm.FitGradScale(v, idxs, 0.2)
	// After fitting, the RMS of normalized gradients should be ~0.2.
	sum := 0.0
	for _, idx := range idxs {
		i, j, k := v.Coords(idx)
		g := norm.Gradient(v.GradientAt(i, j, k))
		sum += g.Norm2()
	}
	rms := math.Sqrt(sum / float64(3*len(idxs)))
	if math.Abs(rms-0.2) > 1e-9 {
		t.Fatalf("fitted gradient RMS %g, want 0.2", rms)
	}
}

func TestFitGradScaleZeroField(t *testing.T) {
	v := grid.New(4, 4, 4)
	norm := NewNormalizer(v.Bounds(), 0, 1)
	norm.FitGradScale(v, []int{0, 1, 2}, 0.2)
	if norm.GradScale != 1 {
		t.Fatalf("zero-gradient field: GradScale %g, want 1", norm.GradScale)
	}
}

func TestExtractorValidation(t *testing.T) {
	v := testVolume()
	norm := NormalizerFor(pointcloud.New("f", 0), v.Bounds())
	small := pointcloud.New("f", 0)
	small.Add(mathutil.Vec3{}, 1)
	if _, err := NewExtractor(Config{K: 5}, small, norm); err == nil {
		t.Fatal("accepted cloud smaller than K")
	}
	if _, err := NewExtractor(Config{K: 0}, small, norm); err == nil {
		t.Fatal("accepted K=0")
	}
	if _, err := NewExtractor(Config{K: 1}, small, nil); err == nil {
		t.Fatal("accepted nil normalizer")
	}
	// The tree NewExtractor builds would be corrupt over a non-finite
	// coordinate.
	bad := pointcloud.New("f", 0)
	bad.Add(mathutil.Vec3{}, 1)
	bad.Add(mathutil.Vec3{Y: math.Inf(-1)}, 2)
	if _, err := NewExtractor(Config{K: 1}, bad, norm); err == nil {
		t.Fatal("accepted a non-finite coordinate")
	}
}

func TestFeatureVectorLayout(t *testing.T) {
	// A cloud with one very close point: that point must occupy the
	// first 4 slots, and the last 3 slots must be the normalized query.
	v := grid.New(11, 11, 11)
	cloud := pointcloud.New("f", 0)
	cloud.Add(mathutil.Vec3{X: 5, Y: 5, Z: 5}, 42)
	cloud.Add(mathutil.Vec3{X: 0, Y: 0, Z: 0}, 1)
	cloud.Add(mathutil.Vec3{X: 10, Y: 10, Z: 10}, 2)
	norm := NewNormalizer(v.Bounds(), 0, 100)
	ex, err := NewExtractor(Config{K: 2}, cloud, norm)
	if err != nil {
		t.Fatal(err)
	}
	q := mathutil.Vec3{X: 5, Y: 5, Z: 6}
	dst := make([]float64, ex.Config().InputWidth())
	ex.FeaturesInto(q, dst, nil)
	// Nearest sample is (5,5,5) -> normalized (0.5, 0.5, 0.5), value 0.42.
	if dst[0] != 0.5 || dst[1] != 0.5 || dst[2] != 0.5 {
		t.Fatalf("nearest coords: %v", dst[:4])
	}
	if math.Abs(dst[3]-0.42) > 1e-12 {
		t.Fatalf("nearest value: %g", dst[3])
	}
	// Query coords in the last three slots.
	w := 4 * 2
	if dst[w] != 0.5 || dst[w+1] != 0.5 || math.Abs(dst[w+2]-0.6) > 1e-12 {
		t.Fatalf("query coords: %v", dst[w:])
	}
}

// TestBuildBatchMatchesMatrix queries every grid node in raster order,
// as reconstruction does, and checks that the batched paths — BuildBatch
// with neighbour buffers of K, 3K+1 and 512·K entries, Matrix and
// GridMatrix — write rows bit-identical to per-query FeaturesInto.
func TestBuildBatchMatchesMatrix(t *testing.T) {
	v := testVolume()
	cloud, _, err := (&sampling.Importance{Seed: 2}).Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	norm := NormalizerFor(cloud, v.Bounds())
	ex, err := NewExtractor(DefaultConfig(), cloud, norm)
	if err != nil {
		t.Fatal(err)
	}
	k, width := ex.Config().K, ex.Config().InputWidth()
	queries := make([]mathutil.Vec3, v.Len())
	idxs := make([]int, v.Len())
	want := nn.NewMatrix(len(queries), width)
	for i := range queries {
		queries[i], idxs[i] = v.PointAt(i), i
		ex.FeaturesInto(queries[i], want.Row(i), make([]kdtree.Neighbor, 0, k))
	}
	same := func(name string, got *nn.Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: row %d col %d: %g, FeaturesInto %g", name, i/width, i%width, got.Data[i], want.Data[i])
			}
		}
	}
	x := nn.NewMatrix(len(queries), width)
	for _, n := range []int{k, 3*k + 1, 512 * k} {
		for i := range x.Data {
			x.Data[i] = math.NaN()
		}
		if err := ex.BuildBatch(queries, x, make([]kdtree.Neighbor, 0, n)); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("BuildBatch, nbBuf of %d", n), x)
	}
	same("Matrix", ex.Matrix(queries))
	same("GridMatrix", ex.GridMatrix(v, idxs))

	// Misuse is rejected.
	nbBuf := make([]kdtree.Neighbor, 0, 512*k)
	if err := ex.BuildBatch(queries, nn.NewMatrix(len(queries), 5), nbBuf); err == nil {
		t.Error("wrong column count accepted")
	}
	if err := ex.BuildBatch(queries, nn.NewMatrix(3, width), nbBuf); err == nil {
		t.Error("too few rows accepted")
	}
	if err := ex.BuildBatch(queries, x, make([]kdtree.Neighbor, 0, k-1)); err == nil {
		t.Error("neighbour buffer shorter than K accepted")
	}
	// Steady-state zero allocations, the fused-path contract.
	if a := testing.AllocsPerRun(10, func() {
		if err := ex.BuildBatch(queries, x, nbBuf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("BuildBatch: %v allocs/op, want 0", a)
	}
}

// TestNewExtractorWithTreeRejectsForeignTree pins the guard on shared
// trees: a tree over a different number of points than the cloud would
// hand FeaturesInto short neighbour lists, or indices past the cloud.
func TestNewExtractorWithTreeRejectsForeignTree(t *testing.T) {
	v := testVolume()
	cloud, _, err := (&sampling.Importance{Seed: 2}).Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	norm := NormalizerFor(cloud, v.Bounds())
	cfg := DefaultConfig()
	for _, n := range []int{cfg.K - 1, cloud.Len() - 1, cloud.Len() + 1} {
		pts := make([]mathutil.Vec3, n)
		copy(pts, cloud.Points)
		if _, err := NewExtractorWithTree(cfg, cloud, kdtree.Build(pts), norm); err == nil {
			t.Errorf("tree over %d points accepted for a cloud of %d", n, cloud.Len())
		}
	}
	if _, err := NewExtractorWithTree(cfg, cloud, kdtree.Build(cloud.Points), norm); err != nil {
		t.Fatalf("the cloud's own tree: %v", err)
	}
}

func TestBuildShapes(t *testing.T) {
	v := testVolume()
	cloud, idxs, err := (&sampling.Importance{Seed: 2}).Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	void := sampling.VoidIndices(v, idxs)
	norm := NormalizerFor(cloud, v.Bounds())
	cfg := DefaultConfig()
	ts, err := Build(cfg, v, cloud, void, norm)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != len(void) {
		t.Fatalf("rows=%d want %d", ts.Len(), len(void))
	}
	if ts.X.Cols != 23 || ts.Y.Cols != 4 {
		t.Fatalf("shapes %dx%d", ts.X.Cols, ts.Y.Cols)
	}
	// Targets must be the normalized truth values.
	for r := 0; r < 10; r++ {
		want := norm.Value(v.Data[void[r]])
		if math.Abs(ts.Y.At(r, 0)-want) > 1e-12 {
			t.Fatalf("row %d: target %g want %g", r, ts.Y.At(r, 0), want)
		}
	}
	// All features finite and coordinates within [0, 1].
	for i, x := range ts.X.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("non-finite feature at %d", i)
		}
	}
}

func TestAppendAndSubsample(t *testing.T) {
	v := testVolume()
	cloud, idxs, err := (&sampling.Importance{Seed: 2}).Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	void := sampling.VoidIndices(v, idxs)
	norm := NormalizerFor(cloud, v.Bounds())
	ts, err := Build(DefaultConfig(), v, cloud, void, norm)
	if err != nil {
		t.Fatal(err)
	}
	n0 := ts.Len()
	ts2, _ := Build(DefaultConfig(), v, cloud, void[:100], norm)
	if err := ts.Append(ts2); err != nil {
		t.Fatal(err)
	}
	if ts.Len() != n0+100 {
		t.Fatalf("append: %d", ts.Len())
	}

	half, err := ts.Subsample(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(half.Len()) - 0.5*float64(ts.Len())); d > 1 {
		t.Fatalf("subsample size %d of %d", half.Len(), ts.Len())
	}
	if _, err := ts.Subsample(0, 1); err == nil {
		t.Fatal("accepted fraction 0")
	}
	full, err := ts.Subsample(1, 1)
	if err != nil || full.Len() != ts.Len() {
		t.Fatal("fraction 1 should keep everything")
	}
	// Deterministic.
	h2, _ := ts.Subsample(0.5, 3)
	for i := range half.X.Data {
		if half.X.Data[i] != h2.X.Data[i] {
			t.Fatal("subsample not deterministic")
		}
	}
}

func TestAppendIncompatible(t *testing.T) {
	a := &TrainingSet{X: nn.NewMatrix(1, 3), Y: nn.NewMatrix(1, 1)}
	b := &TrainingSet{X: nn.NewMatrix(1, 4), Y: nn.NewMatrix(1, 1)}
	if err := a.Append(b); err == nil {
		t.Fatal("accepted incompatible widths")
	}
}

func TestSubsampleWeightedProperties(t *testing.T) {
	v := testVolume()
	cloud, idxs, err := (&sampling.Importance{Seed: 2}).Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	void := sampling.VoidIndices(v, idxs)
	norm := NormalizerFor(cloud, v.Bounds())
	ts, err := Build(DefaultConfig(), v, cloud, void, norm)
	if err != nil {
		t.Fatal(err)
	}
	w := ts.GradientWeights(0)
	if w == nil || len(w) != ts.Len() {
		t.Fatalf("weights: %d for %d rows", len(w), ts.Len())
	}
	for _, wi := range w {
		if wi <= 0 {
			t.Fatalf("non-positive weight %g", wi)
		}
	}
	sub, err := ts.SubsampleWeighted(0.25, w, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.25*float64(ts.Len()) + 0.5)
	if sub.Len() != want {
		t.Fatalf("kept %d rows, want %d", sub.Len(), want)
	}
	// The kept rows should have higher average gradient magnitude than
	// the full set (that's the point of weighting).
	avg := func(s *TrainingSet) float64 {
		total := 0.0
		for r := 0; r < s.Len(); r++ {
			row := s.Y.Row(r)
			total += math.Sqrt(row[1]*row[1] + row[2]*row[2] + row[3]*row[3])
		}
		return total / float64(s.Len())
	}
	if avg(sub) <= avg(ts) {
		t.Fatalf("weighted subset avg gradient %.4f not above full set %.4f", avg(sub), avg(ts))
	}
}

func TestSubsampleWeightedValidation(t *testing.T) {
	ts := &TrainingSet{X: nn.NewMatrix(4, 2), Y: nn.NewMatrix(4, 1)}
	if _, err := ts.SubsampleWeighted(0, []float64{1, 1, 1, 1}, 1); err == nil {
		t.Fatal("accepted fraction 0")
	}
	if _, err := ts.SubsampleWeighted(0.5, []float64{1}, 1); err == nil {
		t.Fatal("accepted weight/row mismatch")
	}
	full, err := ts.SubsampleWeighted(1, []float64{1, 1, 1, 1}, 1)
	if err != nil || full.Len() != 4 {
		t.Fatal("fraction 1 should keep everything")
	}
}

func TestGradientWeightsNoGradients(t *testing.T) {
	ts := &TrainingSet{X: nn.NewMatrix(4, 23), Y: nn.NewMatrix(4, 1)}
	if w := ts.GradientWeights(0); w != nil {
		t.Fatal("value-only targets should yield nil weights")
	}
}

func TestSplit(t *testing.T) {
	ts := &TrainingSet{X: nn.NewMatrix(100, 3), Y: nn.NewMatrix(100, 1)}
	for i := 0; i < 100; i++ {
		ts.X.Set(i, 0, float64(i))
		ts.Y.Set(i, 0, float64(i))
	}
	train, val, err := ts.Split(0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+val.Len() != 100 {
		t.Fatalf("split sizes %d + %d", train.Len(), val.Len())
	}
	if val.Len() != 20 {
		t.Fatalf("val size %d", val.Len())
	}
	// Disjoint row sets covering everything.
	seen := map[float64]bool{}
	for _, s := range []*TrainingSet{train, val} {
		for r := 0; r < s.Len(); r++ {
			id := s.X.At(r, 0)
			if seen[id] {
				t.Fatalf("row %g in both splits", id)
			}
			seen[id] = true
			if s.Y.At(r, 0) != id {
				t.Fatal("X/Y rows desynced by split")
			}
		}
	}
	if len(seen) != 100 {
		t.Fatal("split lost rows")
	}
	// Bad fractions rejected.
	if _, _, err := ts.Split(0, 1); err == nil {
		t.Fatal("accepted 0")
	}
	if _, _, err := ts.Split(1, 1); err == nil {
		t.Fatal("accepted 1")
	}
}
