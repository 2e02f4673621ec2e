package interp

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/delaunay"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/metrics"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

func testVolume() *grid.Volume {
	gen := datasets.NewIsabel(2)
	return datasets.Volume(gen, 24, 24, 10, 8)
}

func sampledCloud(t *testing.T, v *grid.Volume, frac float64) (*pointcloud.Cloud, []int) {
	t.Helper()
	c, idxs, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", frac)
	if err != nil {
		t.Fatal(err)
	}
	return c, idxs
}

func allMethods() []Reconstructor {
	return []Reconstructor{
		&Nearest{},
		&Shepard{},
		&NaturalNeighbor{},
		&Linear{},
		&RBF{K: 10},
	}
}

func TestAllMethodsRejectEmptyCloud(t *testing.T) {
	v := testVolume()
	empty := pointcloud.New("f", 0)
	for _, m := range allMethods() {
		if _, err := m.Reconstruct(empty, SpecOf(v)); err == nil {
			t.Fatalf("%s accepted an empty cloud", m.Name())
		}
	}
}

func TestAllMethodsExactAtSampledNodes(t *testing.T) {
	v := testVolume()
	cloud, idxs := sampledCloud(t, v, 0.05)
	for _, m := range allMethods() {
		recon, err := m.Reconstruct(cloud, SpecOf(v))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, idx := range idxs {
			got := recon.Data[idx]
			want := v.Data[idx]
			if math.Abs(got-want) > 1e-6*(math.Abs(want)+1) {
				t.Fatalf("%s: sampled node %d: got %g want %g", m.Name(), idx, got, want)
			}
		}
	}
}

func TestAllMethodsReasonableSNR(t *testing.T) {
	v := testVolume()
	cloud, _ := sampledCloud(t, v, 0.05)
	for _, m := range allMethods() {
		recon, err := m.Reconstruct(cloud, SpecOf(v))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		snr, err := metrics.SNR(v, recon)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.2f dB", m.Name(), snr)
		if snr < 5 {
			t.Fatalf("%s: SNR %.2f dB too low for 5%% sampling", m.Name(), snr)
		}
	}
}

func TestQualityOrderingLinearBeatsNearest(t *testing.T) {
	// The paper's consistent finding among rule-based methods: linear
	// (Delaunay) beats nearest neighbor at moderate sampling rates.
	v := testVolume()
	cloud, _ := sampledCloud(t, v, 0.03)
	lin, err := (&Linear{}).Reconstruct(cloud, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	near, err := (&Nearest{}).Reconstruct(cloud, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	sLin, _ := metrics.SNR(v, lin)
	sNear, _ := metrics.SNR(v, near)
	t.Logf("linear=%.2f dB nearest=%.2f dB", sLin, sNear)
	if sLin <= sNear {
		t.Fatalf("linear (%.2f) should beat nearest (%.2f)", sLin, sNear)
	}
}

func TestLinearSequentialMatchesParallel(t *testing.T) {
	v := testVolume()
	cloud, _ := sampledCloud(t, v, 0.03)
	seq, err := (&Linear{Workers: 1}).Reconstruct(cloud, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Linear{}).Reconstruct(cloud, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(seq, par); d > 1e-9 {
		t.Fatalf("sequential and parallel linear differ by %g", d)
	}
}

func TestLinearNameReflectsWorkers(t *testing.T) {
	if (&Linear{Workers: 1}).Name() != "linear-seq" {
		t.Fatal("sequential name")
	}
	if (&Linear{}).Name() != "linear" {
		t.Fatal("parallel name")
	}
}

func TestLinearDegradesToNearestForTinyClouds(t *testing.T) {
	v := testVolume()
	c := pointcloud.New("f", 3)
	c.Add(mathutil.Vec3{X: 0.1, Y: 0.1, Z: 0.1}, 1)
	c.Add(mathutil.Vec3{X: 0.9, Y: 0.9, Z: 0.9}, 2)
	c.Add(mathutil.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, 3)
	recon, err := (&Linear{}).Reconstruct(c, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	// Every value must be one of the three sample values.
	for _, x := range recon.Data {
		if x != 1 && x != 2 && x != 3 {
			t.Fatalf("unexpected value %g", x)
		}
	}
}

func TestMethodsReproduceLinearField(t *testing.T) {
	// Linear interpolation is exact on a linear field (inside the
	// hull); Shepard / natural / nearest are not exact but must stay
	// within the value range (no extrapolation blow-ups).
	v := grid.New(16, 16, 16)
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return 2*p.X + 3*p.Y - p.Z })
	cloud, _, err := (&sampling.Random{Seed: 3}).Sample(v, "f", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	for _, m := range allMethods() {
		recon, err := m.Reconstruct(cloud, SpecOf(v))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for idx, x := range recon.Data {
			if x < st.Min()-1e-6 || x > st.Max()+1e-6 {
				t.Fatalf("%s: value %g at %d outside field range [%g, %g]",
					m.Name(), x, idx, st.Min(), st.Max())
			}
		}
	}
}

func TestNearestIsVoronoiAssignment(t *testing.T) {
	v := grid.New(8, 8, 8)
	c := pointcloud.New("f", 2)
	c.Add(mathutil.Vec3{X: 0, Y: 0, Z: 0}, 10)
	c.Add(mathutil.Vec3{X: 7, Y: 7, Z: 7}, 20)
	recon, err := (&Nearest{}).Reconstruct(c, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < v.Len(); idx++ {
		p := v.PointAt(idx)
		want := 10.0
		if p.Dist2(c.Points[1]) < p.Dist2(c.Points[0]) {
			want = 20.0
		}
		if p.Dist2(c.Points[1]) == p.Dist2(c.Points[0]) {
			continue // tie: either is acceptable
		}
		if recon.Data[idx] != want {
			t.Fatalf("node %d: got %g want %g", idx, recon.Data[idx], want)
		}
	}
}

func TestShepardWeightsLocal(t *testing.T) {
	// A query right next to one sample should take ~that sample's value.
	v := grid.New(10, 10, 10)
	c := pointcloud.New("f", 0)
	c.Add(mathutil.Vec3{X: 2, Y: 2, Z: 2}, 100)
	for i := 0; i < 20; i++ {
		c.Add(mathutil.Vec3{X: 8 + float64(i%3)*0.2, Y: 8, Z: 8}, 0)
	}
	recon, err := (&Shepard{K: 5}).Reconstruct(c, SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	near := recon.At(2, 2, 2)
	if near != 100 {
		t.Fatalf("at the sample: %g", near)
	}
	// One voxel away, still strongly dominated by the close sample.
	if v := recon.At(2, 2, 3); v < 50 {
		t.Fatalf("adjacent voxel %g should be dominated by the near sample", v)
	}
}

func TestStandardRegistry(t *testing.T) {
	reg := StandardRegistry(0)
	for _, name := range []string{"nearest", "shepard", "natural", "rbf", "linear", "linear-seq"} {
		m, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, m.Name())
		}
	}
	_, err := reg.Get("bogus")
	if err == nil {
		t.Fatal("expected error")
	}
	// Typos should be self-diagnosing: the error lists what is registered.
	for _, want := range []string{"bogus", "linear", "natural", "nearest", "rbf", "shepard"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// One worker registers every name too; its linear is sequential.
	seq := StandardRegistry(1)
	if got := strings.Join(seq.Names(), " "); got != "linear linear-seq natural nearest rbf shepard" {
		t.Fatalf("StandardRegistry(1).Names() = %s", got)
	}
	if m, err := seq.Get("linear"); err != nil || m.(*Linear).Workers != 1 {
		t.Fatalf("StandardRegistry(1).Get(linear) = %v, %v", m, err)
	}
}

func TestGridSpec(t *testing.T) {
	v := testVolume()
	spec := SpecOf(v)
	if spec.Len() != v.Len() {
		t.Fatal("spec length mismatch")
	}
	nv := spec.NewVolume()
	if !nv.SameGeometry(v) {
		t.Fatal("NewVolume geometry mismatch")
	}
}

func TestReconstructOntoDifferentGrid(t *testing.T) {
	// Reconstructing onto a finer grid than the source samples came
	// from must work for every method (the upscaling scenario).
	v := testVolume()
	cloud, _ := sampledCloud(t, v, 0.05)
	fine := GridSpec{
		NX: 30, NY: 30, NZ: 12,
		Origin:  v.Origin,
		Spacing: mathutil.Vec3{X: v.Spacing.X * 23 / 29, Y: v.Spacing.Y * 23 / 29, Z: v.Spacing.Z * 9 / 11},
	}
	for _, m := range allMethods() {
		recon, err := m.Reconstruct(cloud, fine)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if recon.Len() != fine.Len() {
			t.Fatalf("%s: wrong output size", m.Name())
		}
	}
}

func TestMethodsHandleOffGridSamples(t *testing.T) {
	// Sample positions need not coincide with output grid nodes (e.g.
	// clouds decoded from a different grid, or upscaling workflows).
	v := grid.New(12, 12, 12)
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return p.X * p.Y })
	rng := mathutil.NewRNG(9)
	cloud := pointcloud.New("f", 0)
	for i := 0; i < 200; i++ {
		p := mathutil.Vec3{X: rng.Float64() * 11, Y: rng.Float64() * 11, Z: rng.Float64() * 11}
		cloud.Add(p, p.X*p.Y)
	}
	for _, m := range allMethods() {
		recon, err := m.Reconstruct(cloud, SpecOf(v))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		snr, err := metrics.SNR(v, recon)
		if err != nil {
			t.Fatal(err)
		}
		if snr < 10 {
			t.Fatalf("%s: SNR %.2f dB on a smooth bilinear field", m.Name(), snr)
		}
	}
}

func TestSingleSampleCloud(t *testing.T) {
	// One sample: nearest/shepard/natural must all return that value
	// everywhere; linear degrades to nearest; rbf likewise.
	v := grid.New(4, 4, 4)
	cloud := pointcloud.New("f", 1)
	cloud.Add(mathutil.Vec3{X: 1, Y: 1, Z: 1}, 7)
	for _, m := range allMethods() {
		recon, err := m.Reconstruct(cloud, SpecOf(v))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for idx, x := range recon.Data {
			if x != 7 {
				t.Fatalf("%s: node %d = %g, want 7", m.Name(), idx, x)
			}
		}
	}
}

func TestRBFKernels(t *testing.T) {
	v := testVolume()
	cloud, _ := sampledCloud(t, v, 0.05)
	for _, kernel := range []string{"imq", "tps"} {
		m := &RBF{K: 12, Kernel: kernel}
		recon, err := m.Reconstruct(cloud, SpecOf(v))
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		snr, err := metrics.SNR(v, recon)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("rbf/%s: %.2f dB", kernel, snr)
		if snr < 5 {
			t.Fatalf("rbf/%s: %.2f dB too low", kernel, snr)
		}
	}
	if _, err := (&RBF{Kernel: "bogus"}).Reconstruct(cloud, SpecOf(v)); err == nil {
		t.Fatal("accepted unknown kernel")
	}
}

// TestRBFWarmQueriesReuseScratch bounds what a warm RBF query
// allocates: one 2.4 KB solve matrix and right-hand side per worker of
// the neighbour pass, not one pair per tile, which cost a 62×62×12 full
// grid of a 1 % cloud (90 tiles at one worker) 265 KB in 194
// allocations. An 8×8×4 box is one tile either way: about 3.2 KB in 8
// allocations per worker.
func TestRBFWarmQueriesReuseScratch(t *testing.T) {
	p := pinCloud{1, 7, 0.01}.plan(t)
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		region recon.Region
		bound  uint64
	}{
		{"8x8x4 box", recon.Box(21, 34, 5, 29, 42, 9), 12 << 10},
		{"full grid", recon.Full(p.Spec()), 16 << 10},
	} {
		for _, workers := range []int{1, 2} {
			r := &RBF{Workers: workers}
			dst := make([]float64, c.region.Len())
			query := func() {
				if err := r.ReconstructRegion(ctx, p, c.region, dst); err != nil {
					t.Fatal(err)
				}
			}
			query()
			const calls = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				query()
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("%s, %d workers: %d B in %d allocations per call", c.name, workers, perCall, (after.Mallocs-before.Mallocs)/calls)
			if perCall >= c.bound {
				t.Errorf("%s, %d workers: a warm query allocates %d B, want < %d", c.name, workers, perCall, c.bound)
			}
		}
	}
}

// TestLinearBuildSpan pins the mesh build's instrumentation: one
// delaunay/build span per plan, however many linear queries share the
// mesh, nested in the trace of the query that built it, and a
// delaunay.tets_created counter that adds the build's insertions' tets.
func TestLinearBuildSpan(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetEnabled(true)
	defer telemetry.SetDefault(telemetry.SetDefault(reg))
	p := pinCloud{1, 7, 0.01}.plan(t)
	box := recon.Box(21, 34, 5, 29, 42, 9)
	dst := make([]float64, box.Len())
	ctx, root := reg.StartTrace(context.Background(), "test/linear", "")
	for range 2 {
		if err := (&Linear{Workers: 1}).ReconstructRegion(ctx, p, box, dst); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	tri, err := delaunay.Build(p.Cloud().Points, p.Cloud().Values)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Spans["delaunay/build"].Count; got != 1 {
		t.Fatalf("delaunay/build span count %d after two queries on one plan, want 1", got)
	}
	if got, want := s.Counters["delaunay.tets_created"], int64(tri.TetsCreated()); got != want || want <= int64(tri.NumTets()) {
		t.Fatalf("delaunay.tets_created = %d, want %d (more than the %d live)", got, want, tri.NumTets())
	}
	found := false
	for _, tr := range reg.Traces() {
		for _, sp := range tr.Spans {
			found = found || sp.Name == "delaunay/build" && sp.ParentID == root.ID()
		}
	}
	if !found {
		t.Fatal("no delaunay/build span under the query's trace root")
	}
}
