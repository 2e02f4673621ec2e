package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/interp"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// goldenFixture is the root golden test's input: the Isabel analog
// (seed 7) on 32×32×10 at timestep 10 and its 5 % importance sample
// (seed 3).
func goldenFixture(t *testing.T) (*pointcloud.Cloud, recon.GridSpec) {
	t.Helper()
	truth := datasets.Volume(datasets.NewIsabel(7), 32, 32, 10, 10)
	cloud, _, err := (&sampling.Importance{Seed: 3}).Sample(truth, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return cloud, recon.SpecOf(truth)
}

// methodsAt returns every registered method by its registry name — the
// FCNN (an untrained network: bit identity does not depend on the
// weights) and the standard baselines — running on the given worker
// count.
func methodsAt(t *testing.T, workers int) map[string]recon.Reconstructor {
	t.Helper()
	fcnn := *untrainedFCNNHidden(t, 1, 0, []int{32, 16})
	fcnn.opts.Workers = workers
	methods := map[string]recon.Reconstructor{"fcnn": &fcnn}
	reg := interp.StandardRegistry(workers)
	for _, name := range reg.Names() {
		m, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		methods[name] = m
	}
	return methods
}

// queryPoints mixes grid nodes with off-grid points inside the grid.
func queryPoints(spec recon.GridSpec, n int) []mathutil.Vec3 {
	rng := mathutil.NewRNG(11)
	b := spec.Bounds()
	pts := make([]mathutil.Vec3, 0, n)
	for len(pts) < n {
		pts = append(pts, spec.Point(rng.Intn(spec.NX), rng.Intn(spec.NY), rng.Intn(spec.NZ)))
		pts = append(pts, mathutil.Vec3{
			X: b.Min.X + rng.Float64()*(b.Max.X-b.Min.X),
			Y: b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y),
			Z: b.Min.Z + rng.Float64()*(b.Max.Z-b.Min.Z),
		})
	}
	return pts
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestEveryMethodSameBitsAtAnyWorkerCount: on the golden fixture's
// cloud, every method's full-grid, box and point-list outputs are
// bit-identical at 1, 2, 3 and 8 workers, each run on a fresh plan so
// the nearest table, too, is built at that worker count.
func TestEveryMethodSameBitsAtAnyWorkerCount(t *testing.T) {
	cloud, spec := goldenFixture(t)
	pts := queryPoints(spec, 200)
	run := func(name string, m recon.Reconstructor) map[string][]float64 {
		out := map[string][]float64{}
		for _, q := range []struct {
			name   string
			region recon.Region
		}{
			{"full", recon.Full(spec)},
			{"box", recon.Box(5, 9, 2, 26, 20, 9)},
			{"points", recon.PointList(pts)},
		} {
			p, err := recon.NewPlan(cloud, spec)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, q.region.Len())
			if err := m.ReconstructRegion(context.Background(), p, q.region, dst); err != nil {
				t.Fatalf("%s %s: %v", name, q.name, err)
			}
			out[q.name] = dst
		}
		return out
	}
	want := map[string]map[string][]float64{}
	for name, m := range methodsAt(t, 1) {
		want[name] = run(name, m)
	}
	for _, workers := range []int{2, 3, 8} {
		for name, m := range methodsAt(t, workers) {
			for q, got := range run(name, m) {
				if i := sameBits(got, want[name][q]); i >= 0 {
					t.Errorf("%s %s at %d workers: query %d is %v, %v at 1 worker",
						name, q, workers, i, got[i], want[name][q][i])
				}
			}
		}
	}
}

// nearestOracle is the nearest table by one tree.Nearest call per node.
func nearestOracle(p *recon.Plan) ([]int32, []float64) {
	spec := p.Spec()
	idx := make([]int32, spec.Len())
	d2 := make([]float64, spec.Len())
	full := recon.Full(spec)
	for m := range idx {
		i, d := p.Tree().Nearest(full.PointAt(spec, m))
		idx[m], d2[m] = int32(i), d
	}
	return idx, d2
}

func sameTable(idx []int32, d2 []float64, wantIdx []int32, wantD2 []float64) error {
	for m := range wantIdx {
		if idx[m] != wantIdx[m] || math.Float64bits(d2[m]) != math.Float64bits(wantD2[m]) {
			return fmt.Errorf("node %d: (%d, %v), per-node Nearest gives (%d, %v)", m, idx[m], d2[m], wantIdx[m], wantD2[m])
		}
	}
	return nil
}

// TestNearestTableSameFromEveryPass: whichever pass builds the nearest
// table — NearestTable itself, a full-grid FCNN pass or a full-grid
// Shepard pass — at any worker count, it holds per-node tree.Nearest's
// answer, index and distance bits.
func TestNearestTableSameFromEveryPass(t *testing.T) {
	cloud, spec := goldenFixture(t)
	oracle, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx, wantD2 := nearestOracle(oracle)
	for _, workers := range []int{1, 2, 3, 8} {
		methods := methodsAt(t, workers)
		builders := map[string]func(p *recon.Plan) error{
			"NearestTable": func(p *recon.Plan) error { p.NearestTable(workers); return nil },
		}
		for _, name := range []string{"fcnn", "shepard"} {
			m := methods[name]
			builders[name] = func(p *recon.Plan) error {
				_, err := recon.Reconstruct(context.Background(), m, p, recon.Full(spec))
				return err
			}
		}
		for name, build := range builders {
			p, err := recon.NewPlan(cloud, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := build(p); err != nil {
				t.Fatal(err)
			}
			if !p.Stats().NearestTableBuilt {
				t.Fatalf("%s at %d workers left no nearest table", name, workers)
			}
			idx, d2 := p.NearestTable(1)
			if err := sameTable(idx, d2, wantIdx, wantD2); err != nil {
				t.Errorf("%s at %d workers: %v", name, workers, err)
			}
		}
	}
}

// TestConcurrentPassesShareOneTable races the table's four kinds of
// user on one fresh plan: two full-grid passes that fill it (FCNN and
// Shepard), a box query that builds it (natural) and one that runs its
// own pass whether it is there or not (nearest).
// Exactly one table is published, every goroutine sees it, it holds
// per-node Nearest's answer, and every output equals a sequential
// run's. make race runs it under the race detector.
func TestConcurrentPassesShareOneTable(t *testing.T) {
	cloud, spec := goldenFixture(t)
	byName := methodsAt(t, 2)
	box := recon.Box(3, 4, 1, 20, 30, 8)
	jobs := []struct {
		method string
		region recon.Region
	}{
		{"fcnn", recon.Full(spec)},
		{"shepard", recon.Full(spec)},
		{"natural", box},
		{"nearest", box},
	}
	want := make([][]float64, len(jobs))
	for i, j := range jobs {
		p, err := recon.NewPlan(cloud, spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]float64, j.region.Len())
		if err := byName[j.method].ReconstructRegion(context.Background(), p, j.region, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		p, err := recon.NewPlan(cloud, spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]*int32, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]float64, j.region.Len())
				if err := byName[j.method].ReconstructRegion(context.Background(), p, j.region, got); err != nil {
					t.Error(err)
					return
				}
				if k := sameBits(got, want[i]); k >= 0 {
					t.Errorf("round %d %s: query %d is %v, sequentially %v", round, j.method, k, got[k], want[i][k])
				}
				idx, _ := p.NearestTable(2)
				seen[i] = &idx[0]
			}()
		}
		wg.Wait()
		for i := range jobs {
			if seen[i] != seen[0] {
				t.Fatalf("round %d: %s and %s see different nearest tables", round, jobs[i].method, jobs[0].method)
			}
		}
		wantIdx, wantD2 := nearestOracle(p)
		idx, d2 := p.NearestTable(1)
		if err := sameTable(idx, d2, wantIdx, wantD2); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestFCNNRegionQueriesBuildNoTable: an FCNN box or point-list query on
// a fresh plan finds its sample hits in its own neighbour lists and
// leaves the plan without a nearest table, and the void and exact
// counters still split the region's queries between them.
func TestFCNNRegionQueriesBuildNoTable(t *testing.T) {
	cloud, spec := goldenFixture(t)
	r := untrainedFCNNHidden(t, 2, 0, []int{32, 16})
	tel := telemetry.NewRegistry()
	prev := telemetry.SetDefault(tel)
	defer telemetry.SetDefault(prev)
	// Every sample sits on a grid node, so a query list of sample
	// positions is all hits; add off-grid points for void queries.
	pts := append([]mathutil.Vec3(nil), cloud.Points[:40]...)
	pts = append(pts, queryPoints(spec, 60)...)
	for _, region := range []recon.Region{recon.Box(10, 12, 3, 18, 20, 7), recon.Full(spec), recon.PointList(pts)} {
		p, err := recon.NewPlan(cloud, spec)
		if err != nil {
			t.Fatal(err)
		}
		void0 := tel.Counter("core.reconstruct.void_points").Value()
		exact0 := tel.Counter("core.reconstruct.exact_points").Value()
		dst := make([]float64, region.Len())
		if err := r.ReconstructRegion(context.Background(), p, region, dst); err != nil {
			t.Fatal(err)
		}
		void := tel.Counter("core.reconstruct.void_points").Value() - void0
		exact := tel.Counter("core.reconstruct.exact_points").Value() - exact0
		if void+exact != int64(region.Len()) || exact == 0 || void == 0 {
			t.Fatalf("region %+v: %d void + %d exact points, want a split of %d", region, void, exact, region.Len())
		}
		if full := region.IsFull(spec); p.Stats().NearestTableBuilt != full {
			t.Fatalf("region %+v: nearest table built = %v, want %v", region, !full, full)
		}
	}
	// The hits keep the samples' exact values.
	p, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := recon.ReconstructPoints(context.Background(), r, p, cloud.Points)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameBits(vals, cloud.Values); i >= 0 {
		t.Fatalf("sample %d reconstructs to %v, stored %v", i, vals[i], cloud.Values[i])
	}
}

// TestNearestRegionQueriesBuildNoTable: the nearest method's box and
// grid-node point-list queries on a fresh plan leave it without a
// nearest table and answer, index, distance and value, what the table
// holds, bit for bit, at 1, 2 and 3 workers; on a plan that has a
// table they give the same answers.
func TestNearestRegionQueriesBuildNoTable(t *testing.T) {
	cloud, spec := goldenFixture(t)
	oracle, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	tableIdx, tableD2 := oracle.NearestTable(1)
	full := recon.Full(spec)
	var nodes []int
	var pts []mathutil.Vec3
	for g := 0; g < spec.Len(); g += 37 {
		nodes = append(nodes, g)
		pts = append(pts, full.PointAt(spec, g))
	}
	box := recon.Box(3, 4, 1, 20, 30, 8)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3} {
		nearest := methodsAt(t, workers)["nearest"]
		for _, region := range []recon.Region{box, recon.PointList(pts)} {
			p, err := recon.NewPlan(cloud, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, withTable := range []bool{false, true} {
				if withTable {
					p.NearestTable(workers)
				}
				idx, d2, err := p.NearestFor(ctx, region, workers)
				if err != nil {
					t.Fatal(err)
				}
				vals := make([]float64, region.Len())
				if err := nearest.ReconstructRegion(ctx, p, region, vals); err != nil {
					t.Fatal(err)
				}
				if built := p.Stats().NearestTableBuilt; built != withTable {
					t.Fatalf("%d workers, region %+v: nearest table built = %v, want %v", workers, region, built, withTable)
				}
				for m := range idx {
					var g int
					if region.IsPoints() {
						g = nodes[m]
					} else {
						g = region.GridIndex(spec, m)
					}
					if idx[m] != tableIdx[g] || math.Float64bits(d2[m]) != math.Float64bits(tableD2[g]) ||
						math.Float64bits(vals[m]) != math.Float64bits(cloud.Values[tableIdx[g]]) {
						t.Fatalf("%d workers, table %v, query %d (node %d): (%d, %v, %v), table (%d, %v, %v)", workers, withTable, m, g,
							idx[m], d2[m], vals[m], tableIdx[g], tableD2[g], cloud.Values[tableIdx[g]])
					}
				}
			}
		}
	}
}

// TestFCNNHitsFollowTheTable: where two samples coincide at a grid node
// (a cloud merged from two samplings holds such pairs), the node keeps
// the value of the sample the nearest table names, whichever region
// asks for it.
func TestFCNNHitsFollowTheTable(t *testing.T) {
	cloud, spec := goldenFixture(t)
	dup := cloud.Clone()
	for i := 0; i < 30; i++ {
		dup.Add(cloud.Points[i], cloud.Values[i]+1)
	}
	r := untrainedFCNNHidden(t, 2, 0, []int{32, 16})
	p, err := recon.NewPlan(dup, spec)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := p.NearestTable(1)
	full, err := recon.Reconstruct(context.Background(), r, p, recon.Full(spec))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := recon.NewPlan(dup, spec)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := recon.ReconstructPoints(context.Background(), r, fresh, cloud.Points[:30])
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range cloud.Points[:30] {
		ni, nj, nk, ok := spec.NodeOf(q)
		if !ok {
			t.Fatalf("sample %d is off the grid", i)
		}
		want := dup.Values[idx[ni+spec.NX*(nj+spec.NY*nk)]]
		if got := full.At(ni, nj, nk); got != want {
			t.Fatalf("node of sample %d: full grid %v, table's sample holds %v", i, got, want)
		}
		if pts[i] != want {
			t.Fatalf("sample %d as a query point: %v, table's sample holds %v", i, pts[i], want)
		}
	}
}
