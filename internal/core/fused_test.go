package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/features"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// reconstructRegionScalar is the pre-fusion row-at-a-time reference
// implementation the fused path is tested against: full feature matrix
// per macro-batch, the parallel sharded Predict, per-point denorm.
func (r *FCNN) reconstructRegionScalar(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	if c.Len() < r.opts.Features.K {
		return fmt.Errorf("core: cloud has %d points, need >= %d", c.Len(), r.opts.Features.K)
	}
	spec := p.Spec()
	norm := r.reconNormalizer(spec)
	ex, err := features.NewExtractorWithTree(r.opts.Features, c, p.Tree(), norm)
	if err != nil {
		return err
	}
	n := region.Len()
	eps2 := spec.MinSpacing2() * 1e-12
	nearIdx, nearD2, err := p.NearestFor(ctx, region, r.opts.Workers)
	if err != nil {
		return err
	}
	voidIdx := make([]int, 0, n)
	for m := 0; m < n; m++ {
		if nearD2[m] <= eps2 {
			dst[m] = c.Values[nearIdx[m]]
		} else {
			voidIdx = append(voidIdx, m)
		}
	}
	batch := r.opts.ReconBatch
	if batch <= 0 {
		batch = 1 << 18
	}
	var queries []mathutil.Vec3
	for bstart := 0; bstart < len(voidIdx); bstart += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := bstart + batch
		if end > len(voidIdx) {
			end = len(voidIdx)
		}
		chunk := voidIdx[bstart:end]
		queries = queries[:0]
		for _, m := range chunk {
			queries = append(queries, region.PointAt(spec, m))
		}
		x := ex.Matrix(queries)
		pred, err := r.net.Predict(x)
		if err != nil {
			return err
		}
		for i := range chunk {
			dst[chunk[i]] = norm.Denorm(pred.At(i, 0))
		}
	}
	return nil
}

// untrainedFCNN builds a reconstructor around a freshly initialized
// (untrained) network: bit-identity of the inference path does not
// depend on weight quality, so the guard tests skip the training cost.
func untrainedFCNN(t *testing.T, workers, reconBatch int) *FCNN {
	t.Helper()
	return untrainedFCNNHidden(t, workers, reconBatch, []int{48, 24, 16})
}

// untrainedFCNNHidden is untrainedFCNN with the given hidden widths.
func untrainedFCNNHidden(t testing.TB, workers, reconBatch int, hidden []int) *FCNN {
	t.Helper()
	cfg := features.DefaultConfig()
	net, err := nn.New(nn.Config{
		In: cfg.InputWidth(), Out: cfg.OutputWidth(),
		Hidden: hidden, Seed: 9, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Features: cfg, Workers: workers, ReconBatch: reconBatch, Seed: 9}.withDefaults()
	return &FCNN{
		opts: opts, net: net, fieldName: "pressure", tm: &timings{},
		norm: &features.Normalizer{ValScale: 1},
	}
}

// TestFusedBitIdenticalToScalar is the tentpole guard: on the golden
// 32×32×10 Isabel fixture the fused batch pipeline must produce output
// volumes byte-identical to the row-at-a-time reference path, across
// worker counts, macro-batch sizes, and region shapes.
func TestFusedBitIdenticalToScalar(t *testing.T) {
	gen := datasets.NewIsabel(3)
	truth := datasets.Volume(gen, 32, 32, 10, 10)
	cloud, _, err := (&sampling.Importance{Seed: 3}).Sample(truth, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec := recon.SpecOf(truth)
	ctx := context.Background()
	cases := []struct {
		name       string
		workers    int
		reconBatch int
		region     recon.Region
	}{
		{"serial-full", 1, 0, recon.Full(spec)},
		{"parallel-full", 3, 0, recon.Full(spec)},
		{"small-macro-batches", 4, 1000, recon.Full(spec)},
		{"tile-remainder", 2, 777, recon.Full(spec)},
		{"sub-box", 3, 0, recon.Box(4, 5, 1, 29, 27, 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := untrainedFCNN(t, tc.workers, tc.reconBatch)
			p, err := recon.NewPlan(cloud, spec)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.region.Len()
			fused := make([]float64, n)
			scalar := make([]float64, n)
			if err := r.ReconstructRegion(ctx, p, tc.region, fused); err != nil {
				t.Fatal(err)
			}
			if err := r.reconstructRegionScalar(ctx, p, tc.region, scalar); err != nil {
				t.Fatal(err)
			}
			for i := range fused {
				if math.Float64bits(fused[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("point %d: fused %x (%g), scalar %x (%g)",
						i, math.Float64bits(fused[i]), fused[i], math.Float64bits(scalar[i]), scalar[i])
				}
			}
		})
	}
}

func TestWithQuantNamesAndModes(t *testing.T) {
	r := untrainedFCNN(t, 1, 0)
	if r.Name() != "fcnn" {
		t.Fatalf("base name %q", r.Name())
	}
	same, err := r.WithQuant("")
	if err != nil || same != recon.Reconstructor(r) {
		t.Fatalf("WithQuant(\"\") = %v, %v; want the receiver", same, err)
	}
	for mode, want := range map[string]string{"f16": "fcnn-f16", "int8": "fcnn-int8"} {
		q, err := r.WithQuant(mode)
		if err != nil {
			t.Fatal(err)
		}
		if q.Name() != want {
			t.Fatalf("WithQuant(%q).Name() = %q, want %q", mode, q.Name(), want)
		}
	}
	if _, err := r.WithQuant("f32"); err == nil {
		t.Error("WithQuant accepted f32")
	}
	if r.Name() != "fcnn" {
		t.Error("WithQuant mutated the receiver's name")
	}
}

// TestQuantizedReconstructClose checks the quantized views end-to-end:
// the reconstruction runs, stays finite, keeps exact sample hits exact,
// and the f16 volume stays close to the f64 volume (the golden-SNR
// harness pins the quality delta on a trained model; this guards the
// plumbing).
func TestQuantizedReconstructClose(t *testing.T) {
	gen := datasets.NewIsabel(3)
	truth := datasets.Volume(gen, 32, 32, 10, 10)
	cloud, idxs, err := (&sampling.Importance{Seed: 3}).Sample(truth, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec := recon.SpecOf(truth)
	r := untrainedFCNN(t, 2, 0)
	p, err := recon.NewPlan(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, spec.Len())
	if err := r.ReconstructRegion(context.Background(), p, recon.Full(spec), base); err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range base {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, mode := range []string{"f16", "int8"} {
		qr, err := r.WithQuant(mode)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, spec.Len())
		if err := qr.ReconstructRegion(context.Background(), p, recon.Full(spec), out); err != nil {
			t.Fatal(err)
		}
		tol := 0.05
		if mode == "int8" {
			tol = 0.5
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite value at %d", mode, i)
			}
			if d := math.Abs(v - base[i]); d > tol*scale {
				t.Fatalf("%s point %d: |%g - %g| = %g beyond %g", mode, i, v, base[i], d, tol*scale)
			}
		}
		// Exact sample hits bypass the network entirely, so they stay
		// exact in every quant mode.
		for _, idx := range idxs[:10] {
			if out[idx] != truth.Data[idx] {
				t.Fatalf("%s: sampled node %d not exact: %g != %g", mode, idx, out[idx], truth.Data[idx])
			}
		}
	}
}

// goldenPlan builds a plan over a 5% importance sample of the golden
// 32×32×10 Isabel fixture.
func goldenPlan(t *testing.T) *recon.Plan {
	t.Helper()
	truth := datasets.Volume(datasets.NewIsabel(3), 32, 32, 10, 10)
	cloud, _, err := (&sampling.Importance{Seed: 3}).Sample(truth, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := recon.NewPlan(cloud, recon.SpecOf(truth))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scratchMix alternates box and full-grid queries of two models with
// different hidden widths through the shared scratchPool, checking each
// answer against that model's first answer by Float64bits.
type scratchMix struct {
	plan    *recon.Plan
	models  []*FCNN
	regions []recon.Region
	want    [][][]float64 // [model][region]
}

func newScratchMix(t *testing.T) *scratchMix {
	t.Helper()
	p := goldenPlan(t)
	m := &scratchMix{
		plan: p,
		models: []*FCNN{
			untrainedFCNNHidden(t, 2, 0, []int{48, 24, 16}),
			untrainedFCNNHidden(t, 2, 0, []int{40, 16}),
		},
		regions: []recon.Region{recon.Box(10, 12, 3, 18, 20, 7), recon.Full(p.Spec())},
	}
	for _, r := range m.models {
		var answers [][]float64
		for _, reg := range m.regions {
			dst := make([]float64, reg.Len())
			if err := r.ReconstructRegion(context.Background(), p, reg, dst); err != nil {
				t.Fatal(err)
			}
			answers = append(answers, dst)
		}
		m.want = append(m.want, answers)
	}
	return m
}

// run makes rounds passes over every (model, region) pair and returns
// the first mismatch or error.
func (m *scratchMix) run(rounds int) error {
	for round := 0; round < rounds; round++ {
		for ri, reg := range m.regions {
			for mi, r := range m.models {
				dst := make([]float64, reg.Len())
				if err := r.ReconstructRegion(context.Background(), m.plan, reg, dst); err != nil {
					return err
				}
				for i, w := range m.want[mi][ri] {
					if math.Float64bits(dst[i]) != math.Float64bits(w) {
						return fmt.Errorf("model %d region %d round %d point %d: %x, first answer %x",
							mi, ri, round, i, math.Float64bits(dst[i]), math.Float64bits(w))
					}
				}
			}
		}
	}
	return nil
}

// TestScratchPoolAlternatingModels: scratch built for one network shape
// must never serve another, and reuse must not change any bit.
func TestScratchPoolAlternatingModels(t *testing.T) {
	if err := newScratchMix(t).run(3); err != nil {
		t.Fatal(err)
	}
}

// TestScratchPoolConcurrent runs the alternating mix from 8 goroutines
// at once; run it under -race.
func TestScratchPoolConcurrent(t *testing.T) {
	m := newScratchMix(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.run(2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
