// Engine tests live in an external test package so they can exercise
// the real reconstructors from internal/interp and internal/core (both
// of which import recon) against the shared plan.
package recon_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

func testVolume() *grid.Volume {
	gen := datasets.NewIsabel(2)
	return datasets.Volume(gen, 24, 24, 10, 8)
}

func sampledCloud(t *testing.T, v *grid.Volume, frac float64) *pointcloud.Cloud {
	t.Helper()
	c, _, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", frac)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// registryMethods resolves every baseline through the standard registry,
// which is exactly how production callers get their reconstructors.
func registryMethods(t *testing.T) []recon.Reconstructor {
	t.Helper()
	reg := interp.StandardRegistry(0)
	var out []recon.Reconstructor
	for _, name := range reg.Names() {
		m, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// Reconstructing through a shared plan must be bit-identical to the
// legacy per-call path (which builds a private plan): sharing the
// spatial index is an optimization, never a semantic change.
func TestSharedPlanBitIdenticalToLegacy(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range registryMethods(t) {
		legacy, err := m.Reconstruct(cloud, spec)
		if err != nil {
			t.Fatalf("%s legacy: %v", m.Name(), err)
		}
		shared, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec))
		if err != nil {
			t.Fatalf("%s shared: %v", m.Name(), err)
		}
		for i := range legacy.Data {
			if legacy.Data[i] != shared.Data[i] {
				t.Fatalf("%s: voxel %d differs: legacy %v shared %v",
					m.Name(), i, legacy.Data[i], shared.Data[i])
			}
		}
	}
}

// A sub-box reconstruction must equal the corresponding region of the
// full-grid reconstruction exactly, for every registered method.
func TestBoxRegionMatchesFullGridExactly(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	box := recon.Box(3, 5, 2, 17, 20, 9)
	for _, m := range registryMethods(t) {
		full, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec))
		if err != nil {
			t.Fatalf("%s full: %v", m.Name(), err)
		}
		sub, err := recon.Reconstruct(context.Background(), m, plan, box)
		if err != nil {
			t.Fatalf("%s box: %v", m.Name(), err)
		}
		if sub.NX != 14 || sub.NY != 15 || sub.NZ != 7 {
			t.Fatalf("%s: box volume is %dx%dx%d", m.Name(), sub.NX, sub.NY, sub.NZ)
		}
		if want := spec.Point(3, 5, 2); sub.Origin != want {
			t.Fatalf("%s: box origin %v, want %v", m.Name(), sub.Origin, want)
		}
		for n := 0; n < box.Len(); n++ {
			i, j, k := box.Coords(n)
			if got, want := sub.Data[n], full.At(i, j, k); got != want {
				t.Fatalf("%s: node (%d,%d,%d): box %v != full %v", m.Name(), i, j, k, got, want)
			}
		}
	}
}

// Point-list queries at grid-node positions must reproduce the
// full-grid values exactly.
func TestPointListMatchesGridNodes(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	coords := [][3]int{{0, 0, 0}, {5, 7, 3}, {23, 23, 9}, {12, 1, 8}}
	pts := make([]mathutil.Vec3, len(coords))
	for n, c := range coords {
		pts[n] = spec.Point(c[0], c[1], c[2])
	}
	for _, m := range registryMethods(t) {
		full, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec))
		if err != nil {
			t.Fatalf("%s full: %v", m.Name(), err)
		}
		vals, err := recon.ReconstructPoints(context.Background(), m, plan, pts)
		if err != nil {
			t.Fatalf("%s points: %v", m.Name(), err)
		}
		for n, c := range coords {
			if got, want := vals[n], full.At(c[0], c[1], c[2]); got != want {
				t.Fatalf("%s: point %v: got %v, grid has %v", m.Name(), c, got, want)
			}
		}
	}
}

// Every grid node, asked as a query point, must get the full grid's
// value bit for bit, for every registered method and over many seeded
// clouds. A regular grid produces exact distance ties, and whether one
// cloud's ties land on a differently rounded decision is luck, so a
// single cloud and a few nodes cannot show that two code paths agree.
func TestPointListMatchesGridNodesManyClouds(t *testing.T) {
	v := datasets.Volume(datasets.NewIsabel(2), 16, 16, 8, 8)
	spec := recon.SpecOf(v)
	pts := make([]mathutil.Vec3, v.Len())
	for g := range pts {
		pts[g] = v.PointAt(g)
	}
	methods := registryMethods(t)
	clouds := 0
	for _, sampler := range []string{"importance", "random"} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, frac := range []float64{0.01, 0.04, 0.1} {
				s, err := sampling.ByName(sampler, seed)
				if err != nil {
					t.Fatal(err)
				}
				cloud, _, err := s.Sample(v, "pressure", frac)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := recon.NewPlan(cloud, spec)
				if err != nil {
					t.Fatal(err)
				}
				clouds++
				for _, m := range methods {
					full, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec))
					if err != nil {
						t.Fatalf("%s full: %v", m.Name(), err)
					}
					vals, err := recon.ReconstructPoints(context.Background(), m, plan, pts)
					if err != nil {
						t.Fatalf("%s points: %v", m.Name(), err)
					}
					bad, first := 0, -1
					for g, want := range full.Data {
						if vals[g] != want {
							if first < 0 {
								first = g
							}
							bad++
						}
					}
					if bad > 0 {
						i, j, k := v.Coords(first)
						t.Errorf("%s, %s seed %d at %g: %d of %d nodes differ; first (%d,%d,%d): point %v, grid %v",
							m.Name(), sampler, seed, frac, bad, len(pts), i, j, k, vals[first], full.Data[first])
					}
				}
			}
		}
	}
	if clouds < 20 {
		t.Fatalf("only %d clouds checked", clouds)
	}
}

// The FCNN runs through the same engine: shared-plan, box, and
// point-list queries all agree with its full-grid output exactly.
func TestFCNNThroughEngine(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	model, err := core.Pretrain(v, "pressure", &sampling.Importance{Seed: 3}, core.Options{
		Hidden:         []int{16, 8},
		Epochs:         4,
		TrainFractions: []float64{0.05},
		MaxTrainRows:   2000,
		BatchSize:      64,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := model.Reconstruct(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	full, err := recon.Reconstruct(context.Background(), model, plan, recon.Full(spec))
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy.Data {
		if legacy.Data[i] != full.Data[i] {
			t.Fatalf("voxel %d: legacy %v shared %v", i, legacy.Data[i], full.Data[i])
		}
	}
	box := recon.Box(2, 3, 1, 15, 18, 8)
	sub, err := recon.Reconstruct(context.Background(), model, plan, box)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < box.Len(); n++ {
		i, j, k := box.Coords(n)
		if sub.Data[n] != full.At(i, j, k) {
			t.Fatalf("node (%d,%d,%d): box %v != full %v", i, j, k, sub.Data[n], full.At(i, j, k))
		}
	}
	pts := []mathutil.Vec3{spec.Point(4, 4, 4), spec.Point(20, 11, 2)}
	vals, err := recon.ReconstructPoints(context.Background(), model, plan, pts)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != full.At(4, 4, 4) || vals[1] != full.At(20, 11, 2) {
		t.Fatalf("point values %v disagree with grid", vals)
	}
}

// An already-cancelled context fails fast for every method, returning
// ctx.Err() before any work happens.
func TestPreCancelledContext(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range registryMethods(t) {
		_, err := recon.Reconstruct(ctx, m, plan, recon.Full(spec))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", m.Name(), err)
		}
	}
}

// Cancelling mid-run stops a reconstruction promptly with ctx.Err().
// RBF on a larger grid is slow enough that the cancel always lands while
// the chunk scheduler still has tiles in flight.
func TestMidRunCancellationStopsPromptly(t *testing.T) {
	gen := datasets.NewIsabel(2)
	v := datasets.Volume(gen, 48, 48, 24, 8)
	spec := recon.SpecOf(v)
	c, _, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := recon.NewPlan(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	plan.Tree() // exclude index build from the cancellation window
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = recon.Reconstruct(ctx, &interp.RBF{Workers: 2}, plan, recon.Full(spec))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Generous bound: a full RBF solve over this grid takes far longer;
	// a prompt cancel returns within a few tiles.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// Every registered reconstructor reports an empty cloud the same way.
func TestUniformEmptyCloudError(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	empty := pointcloud.New("pressure", 0)
	if _, err := recon.NewPlan(empty, spec); !errors.Is(err, recon.ErrEmptyCloud) {
		t.Fatalf("NewPlan: got %v, want ErrEmptyCloud", err)
	}
	for _, m := range registryMethods(t) {
		if _, err := m.Reconstruct(empty, spec); !errors.Is(err, recon.ErrEmptyCloud) {
			t.Fatalf("%s: got %v, want ErrEmptyCloud", m.Name(), err)
		}
	}
}

// A sample with a NaN or ±Inf coordinate would corrupt the plan's k-d
// tree for every query, so NewPlan refuses the cloud and names the
// point.
func TestNewPlanRejectsNonFiniteCoordinates(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cloud := sampledCloud(t, v, 0.04).Clone()
		cloud.Points[7].Z = bad
		if _, err := recon.NewPlan(cloud, spec); err == nil || !strings.Contains(err.Error(), "point 7 ") {
			t.Fatalf("coordinate %v: NewPlan = %v, want an error naming point 7", bad, err)
		}
	}
}

func TestInvalidSpecAndRegionErrors(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	if _, err := recon.NewPlan(cloud, recon.GridSpec{NX: 0, NY: 4, NZ: 4}); err == nil {
		t.Fatal("NewPlan accepted a zero-extent spec")
	}
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	m := &interp.Nearest{}
	bad := []recon.Region{
		recon.Box(-1, 0, 0, 4, 4, 4),        // negative start
		recon.Box(0, 0, 0, spec.NX+1, 4, 4), // past the grid
		recon.Box(4, 0, 0, 4, 4, 4),         // empty extent
	}
	for _, r := range bad {
		if _, err := recon.Reconstruct(context.Background(), m, plan, r); err == nil ||
			!strings.Contains(err.Error(), "outside grid") {
			t.Fatalf("region %+v: got %v, want outside-grid error", r, err)
		}
	}
	out := grid.New(2, 2, 2)
	err = recon.ReconstructInto(context.Background(), m, plan, recon.Full(spec), out)
	if err == nil || !strings.Contains(err.Error(), "does not match region") {
		t.Fatalf("ReconstructInto: got %v, want dimension-mismatch error", err)
	}
}

// fakeMethod is a minimal Reconstructor for registry unit tests.
type fakeMethod struct{ name string }

func (f *fakeMethod) Name() string { return f.name }
func (f *fakeMethod) Reconstruct(c *pointcloud.Cloud, spec recon.GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), f, c, spec)
}
func (f *fakeMethod) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	for i := range dst {
		dst[i] = 42
	}
	return nil
}

func TestRegistryUnknownNameListsRegistered(t *testing.T) {
	reg := recon.NewRegistry()
	reg.RegisterMethod(&fakeMethod{name: "beta"})
	reg.Register("alpha", func() (recon.Reconstructor, error) {
		return &fakeMethod{name: "alpha"}, nil
	})
	if got := reg.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Names() = %v", got)
	}
	m, err := reg.Get("beta")
	if err != nil || m.Name() != "beta" {
		t.Fatalf("Get(beta) = %v, %v", m, err)
	}
	_, err = reg.Get("gamma")
	if err == nil {
		t.Fatal("Get(gamma) succeeded")
	}
	for _, want := range []string{`"gamma"`, "alpha", "beta"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// One plan, all methods at once: the lazy tree/table/memo built under
// concurrent access must be race-free (run under -race) and the results
// identical to sequential runs.
func TestConcurrentSharedPlanUse(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	methods := registryMethods(t)
	sequential := make(map[string]*grid.Volume)
	for _, m := range methods {
		ref, err := m.Reconstruct(cloud, spec)
		if err != nil {
			t.Fatal(err)
		}
		sequential[m.Name()] = ref
	}
	var wg sync.WaitGroup
	for _, m := range methods {
		wg.Add(1)
		go func(m recon.Reconstructor) {
			defer wg.Done()
			got, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec))
			if err != nil {
				t.Errorf("%s: %v", m.Name(), err)
				return
			}
			want := sequential[m.Name()]
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Errorf("%s: voxel %d differs under concurrency", m.Name(), i)
					return
				}
			}
		}(m)
	}
	wg.Wait()
}

func TestPlanMemoBuildsOnce(t *testing.T) {
	v := testVolume()
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, recon.SpecOf(v))
	if err != nil {
		t.Fatal(err)
	}
	var builds int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, err := plan.Memo("test-key", func() (any, error) {
				builds++
				return "built", nil
			})
			if err != nil || val != "built" {
				t.Errorf("Memo = %v, %v", val, err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times", builds)
	}
	wantErr := errors.New("boom")
	if _, err := plan.Memo("err-key", func() (any, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Memo error = %v", err)
	}
	// Errors are memoized too: the failed build is not retried.
	if _, err := plan.Memo("err-key", func() (any, error) { t.Error("rebuilt"); return nil, nil }); !errors.Is(err, wantErr) {
		t.Fatalf("second Memo error = %v", err)
	}
}

func TestNearestForPointListMatchesTable(t *testing.T) {
	v := testVolume()
	spec := recon.SpecOf(v)
	cloud := sampledCloud(t, v, 0.04)
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	fullIdx, fullD2 := plan.NearestTable(0)
	pts := []mathutil.Vec3{spec.Point(0, 0, 0), spec.Point(11, 13, 5)}
	gi := []int{0, 11 + spec.NX*(13+spec.NY*5)}
	idx, d2, err := plan.NearestFor(context.Background(), recon.PointList(pts), 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := range pts {
		if idx[n] != fullIdx[gi[n]] || d2[n] != fullD2[gi[n]] {
			t.Fatalf("point %d: (%d,%g), table has (%d,%g)", n, idx[n], d2[n], fullIdx[gi[n]], fullD2[gi[n]])
		}
	}
}

// BenchmarkNearestForBox times the nearest method's box queries, one
// worker, on the Isabel analog at divisor 4 (62×62×12) with a 1 %
// importance-sampled cloud: an 8×8×4 box (the serving benchmark's ROI
// shape) and a 31×31×6 box, each on a fresh plan whose k-d tree is
// built (fresh) and on a plan that holds the full-grid nearest table
// (table).
func BenchmarkNearestForBox(b *testing.B) {
	gen := datasets.NewIsabel(1)
	nx, ny, nz := gen.DefaultDims(4)
	v := datasets.Volume(gen, nx, ny, nz, 6)
	cloud, _, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	spec := recon.SpecOf(v)
	ctx := context.Background()
	newPlan := func(b *testing.B) *recon.Plan {
		p, err := recon.NewPlan(cloud, spec)
		if err != nil {
			b.Fatal(err)
		}
		p.Tree()
		return p
	}
	for _, box := range []recon.Region{recon.Box(20, 20, 4, 28, 28, 8), recon.Box(0, 0, 0, 31, 31, 6)} {
		bx, by, bz := box.Dims()
		name := fmt.Sprintf("%dx%dx%d", bx, by, bz)
		b.Run(name+"/fresh", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := newPlan(b)
				b.StartTimer()
				if _, _, err := p.NearestFor(ctx, box, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/table", func(b *testing.B) {
			p := newPlan(b)
			p.NearestTable(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.NearestFor(ctx, box, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
