package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"fillvoid/internal/delaunay"
	"fillvoid/internal/features"
	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/server"
)

// The per-layer probe runs after the timed window, so none of it counts
// in an end-to-end metric. It calls each layer's public functions on
// the workload's own inputs, inside spans, and records one measurement
// per call; a per-layer metric is the median over the probe's inputs.

const (
	probeTile = 512  // rows per k-NN / feature / GEMM tile, as in fused inference
	probeRows = 8192 // void locations the tile probes run over
)

// layerInput is one workload input the probe decomposes.
type layerInput struct {
	dt          int     // timestep offset from the fixture's base
	frac        float64 // sampling fraction
	samplerSeed int64
	roi         recon.Region // the workload's ROI, for core.fcnn_roi_ms
	wire        recon.Region // region of the workload's reconstruct requests
}

// span runs fn inside a span and returns its duration.
func (t *tracer) span(name string, parent, op int, fn func()) time.Duration {
	id := t.start(name, parent, op)
	fn()
	return t.end(id)
}

// timed is span for a call that can fail.
func (t *tracer) timed(name string, parent, op int, fn func() error) (time.Duration, error) {
	var err error
	d := t.span(name, parent, op, func() { err = fn() })
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

func probeLayers(ctx context.Context, tr *tracer, f *fixture, ins []layerInput) error {
	for n, in := range ins {
		if err := probeOne(ctx, tr, f, n, in); err != nil {
			return err
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func probeOne(ctx context.Context, tr *tracer, f *fixture, n int, in layerInput) error {
	op := -1 - n // probe rows sit apart from the workload's ops in the trace
	root := tr.start("layers", 0, op)
	defer tr.end(root)
	step := func(name string, fn func() error) (time.Duration, error) {
		return tr.timed(name, root, op, fn)
	}
	spec := f.spec
	truth := f.volume(in.dt)

	var cloud *pointcloud.Cloud
	var idxs []int
	d, err := step("sampling.Importance.Sample", func() (err error) {
		cloud, idxs, err = (&sampling.Importance{Seed: in.samplerSeed}).Sample(truth, fieldName, in.frac)
		return err
	})
	if err != nil {
		return err
	}
	tr.record("sampling.sample_ms", ms(d))

	var plan *recon.Plan
	d, err = step("recon.NewPlan+Tree", func() (err error) {
		if plan, err = recon.NewPlan(cloud, spec); err == nil {
			plan.Tree()
		}
		return err
	})
	if err != nil {
		return err
	}
	tr.record("recon.plan_build_ms", ms(d))

	d, err = step("recon.Plan.NearestFor", func() error {
		_, _, err := plan.NearestFor(ctx, recon.Full(spec), 0)
		return err
	})
	if err != nil {
		return err
	}
	tr.record("recon.nearest_table_ms", ms(d))

	var tree *kdtree.Tree
	d = tr.span("kdtree.Build", root, op, func() { tree = kdtree.Build(cloud.Points) })
	tr.record("kdtree.build_ms", ms(d))

	d, err = step("delaunay.Build", func() error {
		_, err := delaunay.Build(cloud.Points, cloud.Values)
		return err
	})
	if err != nil {
		return err
	}
	tr.record("delaunay.build_ms", ms(d))

	void := sampling.VoidIndices(truth, idxs)
	if err := probeTiles(tr, root, op, f, cloud, tree, truth.PointAt, void); err != nil {
		return err
	}
	if err := probeTraining(tr, root, op, f, truth, cloud, void); err != nil {
		return err
	}
	if err := probeReconstruct(ctx, tr, root, op, f, plan, in.roi); err != nil {
		return err
	}

	// The server's wire formats, on the workload's own payloads.
	hash := recon.HashCloud(cloud)
	req, err := reconstructBody("fcnn", hash, spec, in.wire)
	if err != nil {
		return err
	}
	d, err = step("json.Unmarshal(ReconstructRequest)", func() error {
		var r server.ReconstructRequest
		return json.Unmarshal(req, &r)
	})
	if err != nil {
		return err
	}
	tr.record("server.decode_request_us", us(d))
	vol, err := recon.Reconstruct(ctx, f.model, plan, in.wire)
	if err != nil {
		return err
	}
	resp := &server.ReconstructResponse{
		Method: "fcnn", Dims: [3]int{vol.NX, vol.NY, vol.NZ},
		Origin:  [3]float64{vol.Origin.X, vol.Origin.Y, vol.Origin.Z},
		Spacing: [3]float64{vol.Spacing.X, vol.Spacing.Y, vol.Spacing.Z},
		Values:  vol.Data, CloudID: hash.String(),
	}
	d, err = step("json.Marshal(ReconstructResponse)", func() error {
		_, err := json.Marshal(resp)
		return err
	})
	if err != nil {
		return err
	}
	tr.record("server.encode_response_us", us(d))
	return nil
}

// probeTiles times the three stages of fused FCNN inference — k-NN,
// feature rows, GEMM forward pass — on probeTile-row tiles of the void
// set, single-threaded as each inference worker runs them.
func probeTiles(tr *tracer, root, op int, f *fixture, cloud *pointcloud.Cloud, tree *kdtree.Tree, pointAt func(int) mathutil.Vec3, void []int) error {
	cfg := f.model.Options().Features
	norm := features.NormalizerFor(cloud, f.spec.Bounds())
	ex, err := features.NewExtractorWithTree(cfg, cloud, tree, norm)
	if err != nil {
		return err
	}
	net := f.model.Network()
	x := nn.NewMatrix(probeTile, cfg.InputWidth())
	out := nn.NewMatrix(probeTile, cfg.OutputWidth())
	buf := net.NewInferenceBuffers(probeTile)
	nbs := make([]kdtree.Neighbor, probeTile*cfg.K)
	nbBuf := make([]kdtree.Neighbor, 0, cfg.K)
	queries := make([]mathutil.Vec3, 0, probeTile)
	rows := min(len(void), probeRows)
	var knnT, featT, predT time.Duration
	for lo := 0; lo < rows; lo += probeTile {
		queries = queries[:0]
		for _, g := range void[lo:min(lo+probeTile, rows)] {
			queries = append(queries, pointAt(g))
		}
		knnT += tr.span("kdtree.Tree.KNearestBatchInto", root, op, func() {
			tree.KNearestBatchInto(queries, cfg.K, 1, nbs)
		})
		x.Rows, out.Rows = len(queries), len(queries)
		d, err := tr.timed("features.Extractor.BuildBatch", root, op, func() error {
			return ex.BuildBatch(queries, x, nbBuf)
		})
		if err != nil {
			return err
		}
		featT += d
		d, err = tr.timed("nn.Network.PredictInto", root, op, func() error {
			return net.PredictInto(x, out, buf)
		})
		if err != nil {
			return err
		}
		predT += d
	}
	if rows == 0 {
		return fmt.Errorf("no void locations to probe")
	}
	nc := net.Config()
	widths := append(append([]int{nc.In}, nc.Hidden...), nc.Out)
	macs := 0
	for i := 1; i < len(widths); i++ {
		macs += widths[i-1] * widths[i]
	}
	tr.record("kdtree.knn_ns_per_query", float64(knnT)/float64(rows))
	tr.record("features.batch_ns_per_row", float64(featT)/float64(rows))
	tr.record("nn.predict_ns_per_row", float64(predT)/float64(rows))
	// FLOP per nanosecond is GFLOP/s.
	tr.record("nn.predict_gflops", 2*float64(macs)*float64(rows)/float64(predT))
	return nil
}

// probeTraining times the training-side layers that set-up's
// pretraining runs, on a pretraining-sized set built from the same
// cloud: feature build and one epoch.
func probeTraining(tr *tracer, root, op int, f *fixture, truth *grid.Volume, cloud *pointcloud.Cloud, void []int) error {
	cfg := f.model.Options().Features
	norm := features.NormalizerFor(cloud, f.spec.Bounds())
	var ts *features.TrainingSet
	d, err := tr.timed("features.Build", root, op, func() (err error) {
		ts, err = features.Build(cfg, truth, cloud, void, norm)
		return err
	})
	if err != nil {
		return err
	}
	tr.record("features.build_ms", ms(d))
	if ts.Len() > modelRows {
		if ts, err = ts.Subsample(float64(modelRows)/float64(ts.Len()), f.seed); err != nil {
			return err
		}
	}
	net, err := nn.New(nn.Config{
		In: cfg.InputWidth(), Out: cfg.OutputWidth(), Hidden: modelHidden,
		Seed: f.seed, BatchSize: modelBatch,
	})
	if err != nil {
		return err
	}
	d, err = tr.timed("nn.Network.TrainEpochs", root, op, func() error {
		_, err := net.TrainEpochs(ts.X, ts.Y, 1)
		return err
	})
	if err != nil {
		return err
	}
	tr.record("nn.epoch_ms", ms(d))
	tr.record("nn.train_rows_per_s", float64(ts.Len())/d.Seconds())
	return nil
}

// probeReconstruct times the engine on a warm plan: the FCNN over the
// full grid and the workload's ROI, every interpolation baseline, and
// the FCNN and linear methods at GOMAXPROCS=1 and =N (nproc) for their
// scaling efficiency t1 / (tN × N).
func probeReconstruct(ctx context.Context, tr *tracer, root, op int, f *fixture, plan *recon.Plan, roi recon.Region) error {
	spec := f.spec
	full := recon.Full(spec)
	run := func(name string, m recon.Reconstructor, region recon.Region) (time.Duration, error) {
		return tr.timed(name, root, op, func() error {
			_, err := recon.Reconstruct(ctx, m, plan, region)
			return err
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := run("recon.Reconstruct/fcnn", f.model, full)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	tr.record("core.fcnn_full_ms", ms(d))
	tr.record("core.fcnn_allocs", float64(after.Mallocs-before.Mallocs))
	d, err = run("recon.Reconstruct/fcnn-roi", f.model, roi)
	if err != nil {
		return err
	}
	tr.record("core.fcnn_roi_ms", ms(d))

	reg := interp.StandardRegistry(0)
	get := func(name string) recon.Reconstructor {
		m, err := reg.Get(name)
		if err != nil {
			panic(err) // the standard registry always holds the baselines
		}
		return m
	}
	// Warm the plan's memoized Delaunay mesh so linear times only
	// interpolation.
	if _, err := run("recon.Reconstruct/linear-warm", get("linear"), recon.Box(0, 0, 0, 1, 1, 1)); err != nil {
		return err
	}
	for _, name := range interp.BaselineNames() {
		d, err := run("recon.Reconstruct/"+name, get(name), full)
		if err != nil {
			return err
		}
		tr.record("interp."+name+"_ms", ms(d))
	}

	// The calls above ran at the run's GOMAXPROCS; time the two methods
	// again at 1 and at nproc.
	n := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(1)
	fcnn1, ferr := run("recon.Reconstruct/fcnn@1", f.model, full)
	linear1, lerr := run("recon.Reconstruct/linear@1", get("linear"), full)
	runtime.GOMAXPROCS(n)
	fcnnN, ferrN := run("recon.Reconstruct/fcnn@nproc", f.model, full)
	linearN, lerrN := run("recon.Reconstruct/linear@nproc", get("linear"), full)
	runtime.GOMAXPROCS(prev)
	if err := errors.Join(ferr, lerr, ferrN, lerrN); err != nil {
		return err
	}
	tr.record("core.fcnn_scaling_eff", float64(fcnn1)/(float64(fcnnN)*float64(n)))
	tr.record("interp.linear_scaling_eff", float64(linear1)/(float64(linearN)*float64(n)))
	return nil
}
