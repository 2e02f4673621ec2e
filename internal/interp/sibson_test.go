package interp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// bruteSibson is a direct (gather-form) reference implementation of
// discrete Sibson interpolation: for every output node q, scan EVERY
// grid voxel x and count it toward sample n(x) when |x-q| < |x-n(x)|.
// O(N^2) — only usable on tiny grids, but unambiguous.
func bruteSibson(c *pointcloud.Cloud, spec GridSpec) *grid.Volume {
	out := spec.NewVolume()
	tree := kdtree.Build(c.Points)
	n := out.Len()
	nearestIdx := make([]int, n)
	nearestD2 := make([]float64, n)
	for i := 0; i < n; i++ {
		nearestIdx[i], nearestD2[i] = tree.Nearest(out.PointAt(i))
	}
	for q := 0; q < n; q++ {
		if nearestD2[q] == 0 {
			out.Data[q] = c.Values[nearestIdx[q]]
			continue
		}
		qp := out.PointAt(q)
		sum, count := 0.0, 0
		for x := 0; x < n; x++ {
			if nearestD2[x] == 0 {
				continue
			}
			if out.PointAt(x).Dist2(qp) < nearestD2[x] {
				sum += c.Values[nearestIdx[x]]
				count++
			}
		}
		if count > 0 {
			out.Data[q] = sum / float64(count)
		} else {
			out.Data[q] = c.Values[nearestIdx[q]]
		}
	}
	return out
}

func TestDiscreteSibsonMatchesBruteForce(t *testing.T) {
	v := grid.New(10, 9, 8)
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 {
		return math.Sin(p.X*0.8) + p.Y*0.3 - p.Z*p.Z*0.05
	})
	cloud, _, err := (&sampling.Random{Seed: 5}).Sample(v, "f", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(v)
	want := bruteSibson(cloud, spec)
	got, err := (&NaturalNeighbor{}).Reconstruct(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, got); d > 1e-9 {
		t.Fatalf("scatter implementation deviates from gather reference by %g", d)
	}
}

func TestDiscreteSibsonMatchesBruteForceAcrossWorkerCounts(t *testing.T) {
	// The z-slab decomposition must be invariant to the worker count.
	v := grid.New(8, 8, 12)
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return p.X + 2*p.Y - p.Z })
	cloud, _, err := (&sampling.Random{Seed: 9}).Sample(v, "f", 0.08)
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(v)
	ref, err := (&NaturalNeighbor{Workers: 1}).Reconstruct(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 16} {
		got, err := (&NaturalNeighbor{Workers: workers}).Reconstruct(cloud, spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(ref, got); d != 0 {
			t.Fatalf("workers=%d deviates by %g", workers, d)
		}
	}
}

// scatterBallPerVoxel is scatterBall as a per-voxel test: every node of
// the index window is tested against d2 on its own. It is the oracle
// for the row spans.
func scatterBallPerVoxel(spec GridSpec, region recon.Region, si, sj, sk int, d2, val float64, kLo, kHi, w, h int, sums []float64, counts []int32) {
	d := math.Sqrt(d2)
	ri := int(d/spec.Spacing.X) + 1
	rj := int(d/spec.Spacing.Y) + 1
	rk := int(d/spec.Spacing.Z) + 1
	for k := max(sk-rk, kLo); k <= min(sk+rk, kHi-1); k++ {
		dz := float64(k-sk) * spec.Spacing.Z
		dz2 := dz * dz
		if dz2 >= d2 {
			continue
		}
		for j := max(sj-rj, region.J0); j <= min(sj+rj, region.J1-1); j++ {
			dy := float64(j-sj) * spec.Spacing.Y
			dyz2 := dz2 + dy*dy
			if dyz2 >= d2 {
				continue
			}
			row := w * ((j - region.J0) + h*(k-region.K0))
			for i := max(si-ri, region.I0); i <= min(si+ri, region.I1-1); i++ {
				dx := float64(i-si) * spec.Spacing.X
				if dyz2+dx*dx < d2 {
					m := row + (i - region.I0)
					sums[m] += val
					counts[m]++
				}
			}
		}
	}
}

// TestScatterBallSpansMatchPerVoxel scatters every source voxel of
// seeded clouds through scatterBall and through the per-voxel oracle,
// into the full grid, boxes and one-node regions, and requires equal
// sums and counts bit for bit. The clouds are on the anisotropic
// 62×62×12 unit-cube grid (spacings 1/61 and 1/11, which round) and on
// a dyadic 20×12×9 grid, sampled at grid nodes (exact distance ties)
// and drawn off the grid, at 0.5 to 5 %.
func TestScatterBallSpansMatchPerVoxel(t *testing.T) {
	type setup struct {
		name  string
		cloud *pointcloud.Cloud
		spec  GridSpec
	}
	var setups []setup
	for _, g := range []struct {
		name       string
		nx, ny, nz int
		spacing    mathutil.Vec3
		fracs      []float64
		seeds      int
	}{
		{"unit-cube-62x62x12", 62, 62, 12, mathutil.Vec3{X: 1.0 / 61, Y: 1.0 / 61, Z: 1.0 / 11}, []float64{0.005, 0.01, 0.05}, 2},
		{"dyadic-20x12x9", 20, 12, 9, mathutil.Vec3{X: 0.5, Y: 0.25, Z: 1}, []float64{0.01, 0.05}, 1},
	} {
		v := grid.NewWithGeometry(g.nx, g.ny, g.nz, mathutil.Vec3{}, g.spacing)
		v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 {
			return math.Sin(7*p.X)*math.Cos(5*p.Y) + p.Z*p.Z
		})
		spec := SpecOf(v)
		for seed := int64(1); seed <= int64(g.seeds); seed++ {
			for _, frac := range g.fracs {
				imp, _, err := (&sampling.Importance{Seed: seed}).Sample(v, "f", frac)
				if err != nil {
					t.Fatal(err)
				}
				rnd, _, err := (&sampling.Random{Seed: seed}).Sample(v, "f", frac)
				if err != nil {
					t.Fatal(err)
				}
				off := pointcloud.New("f", imp.Len())
				rng := mathutil.NewRNG(seed)
				for range imp.Points {
					p := mathutil.Vec3{
						X: rng.Float64() * float64(g.nx-1) * g.spacing.X,
						Y: rng.Float64() * float64(g.ny-1) * g.spacing.Y,
						Z: rng.Float64() * float64(g.nz-1) * g.spacing.Z,
					}
					off.Add(p, p.X-p.Y)
				}
				for _, c := range []setup{{"importance", imp, spec}, {"random", rnd, spec}, {"off-grid", off, spec}} {
					c.name = fmt.Sprintf("%s/%s/seed%d/%g%%", g.name, c.name, seed, 100*frac)
					setups = append(setups, c)
				}
			}
		}
	}
	if len(setups) < 20 {
		t.Fatalf("only %d clouds", len(setups))
	}
	for _, s := range setups {
		p, err := recon.NewPlan(s.cloud, s.spec)
		if err != nil {
			t.Fatal(err)
		}
		spec := s.spec
		nearestIdx, nearestD2 := p.NearestTable(1)
		regions := []recon.Region{
			recon.Full(spec),
			recon.Box(3, 2, 1, spec.NX-4, spec.NY/2, spec.NZ-1),
			recon.Box(0, spec.NY/3, spec.NZ/2, spec.NX/2, spec.NY, spec.NZ),
			recon.Box(spec.NX-1, 0, 0, spec.NX, spec.NY, 1),
			recon.Box(5, 7, 2, 6, 8, 3),
			recon.Box(0, 0, 0, 1, 1, 1),
			recon.Box(spec.NX-1, spec.NY-1, spec.NZ-1, spec.NX, spec.NY, spec.NZ),
		}
		for _, region := range regions {
			w, h := region.I1-region.I0, region.J1-region.J0
			gotS, wantS := make([]float64, region.Len()), make([]float64, region.Len())
			gotC, wantC := make([]int32, region.Len()), make([]int32, region.Len())
			for src, d2 := range nearestD2 {
				if d2 == 0 {
					continue
				}
				si, sj, sk := src%spec.NX, src/spec.NX%spec.NY, src/(spec.NX*spec.NY)
				val := s.cloud.Values[nearestIdx[src]]
				scatterBall(spec, region, si, sj, sk, d2, val, region.K0, region.K1, w, h, gotS, gotC)
				scatterBallPerVoxel(spec, region, si, sj, sk, d2, val, region.K0, region.K1, w, h, wantS, wantC)
			}
			for m := range wantS {
				if gotC[m] != wantC[m] || math.Float64bits(gotS[m]) != math.Float64bits(wantS[m]) {
					i, j, k := region.Coords(m)
					t.Fatalf("%s region %+v node (%d,%d,%d): spans give sum %v count %d, per-voxel test sum %v count %d",
						s.name, region, i, j, k, gotS[m], gotC[m], wantS[m], wantC[m])
				}
			}
		}
	}
}

// pollCtx is a context whose Err reports context.Canceled from its
// cancelAt-th call on, and counts the calls.
type pollCtx struct {
	context.Context
	cancelAt int64
	calls    atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestNaturalCancelledMidScatterReturnsPromptly cancels a full-grid
// natural query at its third look at the context, inside the scatter,
// and requires ctx.Err() back with every worker stopped at its next
// source plane: a whole query looks once per source plane per worker,
// the cancelled one at most once per worker after the cancel.
func TestNaturalCancelledMidScatterReturnsPromptly(t *testing.T) {
	p := pinCloud{1, 7, 0.01}.plan(t)
	full := recon.Full(p.Spec())
	dst := make([]float64, full.Len())
	for _, workers := range []int{1, 2} {
		r := &NaturalNeighbor{Workers: workers}
		whole := &pollCtx{Context: context.Background(), cancelAt: math.MaxInt64}
		if err := r.ReconstructRegion(whole, p, full, dst); err != nil {
			t.Fatal(err)
		}
		if got, want := whole.calls.Load(), int64(workers*p.Spec().NZ); got < want {
			t.Fatalf("%d workers: a whole query looked at ctx %d times, want at least %d (once per source plane per worker)", workers, got, want)
		}
		const cancelAt = 3
		cut := &pollCtx{Context: context.Background(), cancelAt: cancelAt}
		if err := r.ReconstructRegion(cut, p, full, dst); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: cancelled query returned %v, want %v", workers, err, context.Canceled)
		}
		if got, most := cut.calls.Load(), int64(cancelAt+workers); got > most {
			t.Fatalf("%d workers: cancelled query looked at ctx %d times, want at most %d", workers, got, most)
		}
	}
}
