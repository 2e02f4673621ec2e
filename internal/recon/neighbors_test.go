package recon

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// exhaustiveLists returns the canonical k-NN list of every query by
// exhaustive sort, flat and padded like a pass's lists: every distance
// computed as mathutil.Vec3.Dist2 computes it, sorted by (Dist2, Index).
func exhaustiveLists(points, queries []mathutil.Vec3, k int) []kdtree.Neighbor {
	out := make([]kdtree.Neighbor, 0, len(queries)*k)
	all := make([]kdtree.Neighbor, len(points))
	for _, q := range queries {
		for i, p := range points {
			all[i] = kdtree.Neighbor{Index: i, Dist2: p.Dist2(q)}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Dist2 != all[b].Dist2 {
				return all[a].Dist2 < all[b].Dist2
			}
			return all[a].Index < all[b].Index
		})
		out = append(out, all[:min(k, len(all))]...)
		for j := len(all); j < k; j++ {
			out = append(out, kdtree.Neighbor{Index: -1, Dist2: math.Inf(1)})
		}
	}
	return out
}

// checkPass runs a Neighbors pass over region and fails unless it keeps
// the visitor contract and every list equals the exhaustive sort, index
// and distance bits alike. The contract: w below the worker count; each
// tile 1 to NeighborTile consecutive ordinals inside the region, with
// len(queries)*k list entries and the positions PointAt gives; every
// ordinal in exactly one tile; one worker's tiles in region order.
func checkPass(t *testing.T, p *Plan, region Region, k, workers int) {
	t.Helper()
	n := region.Len()
	queries := make([]mathutil.Vec3, n)
	for i := range queries {
		queries[i] = region.PointAt(p.spec, i)
	}
	got := make([]kdtree.Neighbor, n*k)
	seen := make([]bool, n)
	var mu sync.Mutex
	next := map[int]int{}
	var bad error
	err := p.Neighbors(context.Background(), region, k, workers, func(w, first int, qs []mathutil.Vec3, nbs []kdtree.Neighbor) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case w < 0 || w >= workers:
			bad = fmt.Errorf("worker %d of %d", w, workers)
		case len(qs) < 1 || len(qs) > NeighborTile || first < 0 || first+len(qs) > n:
			bad = fmt.Errorf("tile [%d, %d) of a %d-query region", first, first+len(qs), n)
		case len(nbs) != len(qs)*k:
			bad = fmt.Errorf("tile at %d: %d list entries for %d queries at k = %d", first, len(nbs), len(qs), k)
		case first < next[w]:
			bad = fmt.Errorf("worker %d: tile at %d after one ending at %d", w, first, next[w])
		}
		if bad != nil {
			return bad
		}
		next[w] = first + len(qs)
		for i, q := range qs {
			if seen[first+i] {
				bad = fmt.Errorf("ordinal %d in two tiles", first+i)
				return bad
			}
			seen[first+i] = true
			if q != queries[first+i] {
				bad = fmt.Errorf("ordinal %d: position %v, PointAt gives %v", first+i, q, queries[first+i])
				return bad
			}
		}
		copy(got[first*k:], nbs)
		return nil
	})
	if err != nil || bad != nil {
		t.Fatalf("k=%d, %d workers, region %+v: pass error %v, contract %v", k, workers, region, err, bad)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("k=%d, %d workers: ordinal %d in no tile", k, workers, i)
		}
	}
	want := exhaustiveLists(p.cloud.Points, queries, k)
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
			t.Fatalf("k=%d, %d workers, region %+v: query %d rank %d: got %+v, exhaustive %+v",
				k, workers, region, i/k, i%k, got[i], want[i])
		}
	}
}

// TestNeighborsTilingExact runs the pass where its tiling has edges:
// rows longer than NeighborTile (cut into segments), boxes inside such
// rows, one-node boxes, many rows per tile with planes inside tiles,
// a cloud of fewer than k samples, and every worker count up to more
// workers than rows. Lists must equal the exhaustive sort and tiles
// keep the visitor contract.
func TestNeighborsTilingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cloud := func(spec GridSpec, n int) *pointcloud.Cloud {
		c := pointcloud.New("v", n)
		b := spec.Bounds()
		for range n {
			c.Add(mathutil.Vec3{
				X: b.Min.X + rng.Float64()*(b.Max.X-b.Min.X),
				Y: b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y),
				Z: b.Min.Z + rng.Float64()*(b.Max.Z-b.Min.Z),
			}, 0)
		}
		return c
	}
	wide := GridSpec{NX: 600, NY: 2, NZ: 3, Spacing: mathutil.Vec3{X: 1.0 / 599, Y: 0.4, Z: 0.5}}
	narrow := GridSpec{NX: 5, NY: 9, NZ: 4, Origin: mathutil.Vec3{X: 2}, Spacing: mathutil.Vec3{X: 0.1, Y: 0.07, Z: 0.2}}
	for _, c := range []struct {
		name    string
		spec    GridSpec
		samples int
		regions []Region
	}{
		{"wide rows", wide, 60, []Region{Full(wide), Box(40, 1, 1, 590, 2, 3), Box(511, 0, 2, 513, 2, 3)}},
		{"narrow rows", narrow, 25, []Region{Full(narrow), Box(1, 2, 1, 4, 9, 4), Box(0, 8, 0, 5, 9, 4)}},
		{"one-node boxes", narrow, 25, []Region{Box(0, 0, 0, 1, 1, 1), Box(4, 8, 3, 5, 9, 4), Box(2, 5, 1, 3, 6, 2)}},
		{"fewer than k", narrow, 3, []Region{Full(narrow), Box(1, 1, 1, 3, 3, 3)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewPlan(cloud(c.spec, c.samples), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, region := range c.regions {
				for _, k := range []int{1, 2, 5, 16} {
					for _, workers := range []int{1, 2, 3, 40} {
						checkPass(t, p, region, k, workers)
					}
				}
			}
		})
	}
}

// TestNeighborsTelemetry pins the pass's instrumentation: one
// recon/neighbors span per pass, not per tile, and counters that add
// each pass's queries, the block candidates its grid nodes scanned,
// and its search time.
func TestNeighborsTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetEnabled(true)
	defer telemetry.SetDefault(telemetry.SetDefault(reg))
	spec := GridSpec{NX: 40, NY: 30, NZ: 3, Spacing: mathutil.Vec3{X: 0.1, Y: 0.1, Z: 0.3}}
	c := pointcloud.New("v", 0)
	rng := rand.New(rand.NewSource(2))
	for range 50 {
		c.Add(mathutil.Vec3{X: rng.Float64() * 4, Y: rng.Float64() * 3, Z: rng.Float64()}, 0)
	}
	p, err := NewPlan(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Neighbors(ctx, Full(spec), 5, 2, nil); err != nil {
		t.Fatal(err)
	}
	pts := []mathutil.Vec3{{X: 1, Y: 1, Z: 0.5}, {X: 2, Y: 0.5, Z: 0}}
	if err := p.Neighbors(ctx, PointList(pts), 5, 1, nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Spans["recon/neighbors"].Count; got != 2 {
		t.Fatalf("recon/neighbors span count %d after two passes, want 2", got)
	}
	if got, want := s.Counters["recon.neighbors.queries"], int64(spec.Len()+len(pts)); got != want {
		t.Fatalf("recon.neighbors.queries = %d, want %d", got, want)
	}
	if got := s.Counters["recon.neighbors.candidates"]; got < int64(5*spec.Len()) {
		t.Fatalf("recon.neighbors.candidates = %d, want at least k per grid node (%d)", got, 5*spec.Len())
	}
	if s.Counters["recon.neighbors.search_ns"] <= 0 {
		t.Fatal("recon.neighbors.search_ns did not grow")
	}
}

// BenchmarkNeighbors times the neighbour pass with one worker and no
// visitor on the Isabel analog at divisor 4 (62×62×12, the perfbench
// grid), importance-sampled at 0.1, 1 and 5 %, over the full grid and
// an 8×8×4 box (the serving benchmark's ROI shape), at k = 2, 5, 12
// and 16. The plan holds its nearest table, so full-grid passes only
// search. It reports ns/query and, from one more pass under telemetry,
// candidates/query: the block candidates each node scanned.
func BenchmarkNeighbors(b *testing.B) {
	gen := datasets.NewIsabel(1)
	nx, ny, nz := gen.DefaultDims(4)
	v := datasets.Volume(gen, nx, ny, nz, 6)
	spec := SpecOf(v)
	ctx := context.Background()
	for _, frac := range []float64{0.001, 0.01, 0.05} {
		cloud, _, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", frac)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := NewPlan(cloud, spec)
		if err != nil {
			b.Fatal(err)
		}
		plan.NearestTable(1)
		for _, region := range []Region{Full(spec), Box(20, 20, 4, 28, 28, 8)} {
			rx, ry, rz := region.Dims()
			for _, k := range []int{2, 5, 12, 16} {
				b.Run(fmt.Sprintf("%g%%/%dx%dx%d/k=%d", frac*100, rx, ry, rz, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := plan.Neighbors(ctx, region, k, 1, nil); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*region.Len()), "ns/query")
					b.StopTimer()
					reg := telemetry.NewRegistry()
					reg.SetEnabled(true)
					defer telemetry.SetDefault(telemetry.SetDefault(reg))
					if err := plan.Neighbors(ctx, region, k, 1, nil); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(reg.Counter("recon.neighbors.candidates").Value())/float64(region.Len()), "candidates/query")
				})
			}
		}
	}
}

// BenchmarkNeighborsFullResolution times one full-grid pass with one
// worker on the Isabel analog at its full 250×250×50, importance-sampled
// at 1 %, at k = 5 and 12: the grid where fixed bricks would gather
// far more candidates than at divisor 4.
func BenchmarkNeighborsFullResolution(b *testing.B) {
	gen := datasets.NewIsabel(1)
	nx, ny, nz := gen.DefaultDims(1)
	v := datasets.Volume(gen, nx, ny, nz, 6)
	cloud, _, err := (&sampling.Importance{Seed: 7}).Sample(v, "pressure", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := NewPlan(cloud, SpecOf(v))
	if err != nil {
		b.Fatal(err)
	}
	plan.NearestTable(0)
	for _, k := range []int{5, 12} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := plan.Neighbors(context.Background(), Full(plan.Spec()), k, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
