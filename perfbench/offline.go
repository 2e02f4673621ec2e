package main

import (
	"context"
	"fmt"
	"time"

	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/recon"
)

// offline-sweep is the Fig 9 path with no HTTP: one in-process caller,
// closed loop. Each op samples a fresh cloud, builds a plan and runs
// every method over the full grid, so kernel, k-d tree and
// interpolation changes show here and server changes must not.

var offlineMethods = []string{"fcnn", "linear", "natural", "shepard", "nearest"}

// offlineFrac is every op's sampling fraction. One fraction keeps every
// op at the same cost: with fractions from 0.5% to 5% an op's linear
// reconstruction took 6 to 45 ms and its Shepard one 26 to 62 ms,
// depending on the fraction it drew.
const offlineFrac = 0.01

// offlineInputs distinct timesteps are cycled; snr_db averages the
// first cycle, so it does not depend on how many ops fit in the window.
const offlineInputs = 8

type offline struct {
	f     *fixture
	reg   *recon.Registry
	boxes []recon.Region // per input: the box the ROI check re-runs
}

func setupOffline(ctx context.Context, e *env, _ string) (instance, error) {
	f, err := newFixture(e.seed, e.sc.epochs)
	if err != nil {
		return nil, err
	}
	reg := interp.StandardRegistry(0)
	reg.RegisterMethod(f.model)
	o := &offline{f: f, reg: reg}
	for k := 0; k < offlineInputs; k++ {
		f.volume(1 + k)
		o.boxes = append(o.boxes, f.randomBox())
	}
	for i := 0; i < e.sc.warmOps; i++ {
		if _, _, err := o.op(ctx, nil, 0, i); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return o, nil
}

func (o *offline) fixture() *fixture { return o.f }
func (o *offline) memPID() string    { return "self" }
func (o *offline) close() error      { return nil }

// input returns the (timestep offset, fraction, sampler seed) of op i.
func (o *offline) input(i int) (dt int, frac float64, samplerSeed int64) {
	k := i % offlineInputs
	return 1 + k, offlineFrac, o.f.seed*1000 + int64(k)
}

// op is one timed op: sample, plan, and every method over the full grid.
func (o *offline) op(ctx context.Context, tr *tracer, id, i int) (map[string]*grid.Volume, *recon.Plan, error) {
	root := tr.start("op", 0, id)
	defer tr.end(root)
	dt, frac, sseed := o.input(i)
	sp := tr.start("sampling.sample", root, id)
	c, err := o.f.sample(dt, frac, sseed)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start("recon.plan_build", root, id)
	p, err := recon.NewPlan(c, o.f.spec)
	if err == nil {
		p.Tree()
	}
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	outs := make(map[string]*grid.Volume, len(offlineMethods))
	for _, name := range offlineMethods {
		m, err := o.reg.Get(name)
		if err != nil {
			return nil, nil, err
		}
		sp := tr.start("recon.reconstruct/"+name, root, id)
		v, err := recon.Reconstruct(ctx, m, p, recon.Full(o.f.spec))
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		outs[name] = v
	}
	return outs, p, nil
}

// check verifies op i's outputs: every value is finite, and for every
// method the input's ROI box reconstructed on its own equals the same
// slice of the full grid bit for bit (the engine's ROI guarantee).
func (o *offline) check(ctx context.Context, i int, outs map[string]*grid.Volume, p *recon.Plan) error {
	box := o.boxes[i%offlineInputs]
	for _, name := range offlineMethods {
		full := outs[name]
		if err := allFinite(full.Data); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m, err := o.reg.Get(name)
		if err != nil {
			return err
		}
		roi, err := recon.Reconstruct(ctx, m, p, box)
		if err != nil {
			return fmt.Errorf("%s ROI: %w", name, err)
		}
		want := make([]float64, box.Len())
		for n := range want {
			want[n] = full.Data[box.GridIndex(o.f.spec, n)]
		}
		if err := sameBits(want, roi.Data); err != nil {
			return fmt.Errorf("%s ROI differs from the full grid: %w", name, err)
		}
	}
	return nil
}

func (o *offline) measure(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	snrs := map[string][]float64{}
	var busy time.Duration
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.sc.window; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		outs, p, err := o.op(ctx, e.tr, i, i)
		d := time.Since(t0)
		out.attempted++
		if err != nil {
			out.fail(fmt.Sprintf("op %d", i), err)
			continue
		}
		busy += d
		out.lat = append(out.lat, ms(d))
		if err := o.check(ctx, i, outs, p); err != nil {
			out.wrongOutput(fmt.Sprintf("op %d", i), err)
			continue
		}
		if i < offlineInputs {
			dt, _, _ := o.input(i)
			truth := o.f.volume(dt)
			for name, v := range outs {
				s, err := snr(truth.Data, v.Data)
				if err != nil {
					return nil, fmt.Errorf("op %d %s SNR: %w", i, name, err)
				}
				snrs[name] = append(snrs[name], s)
			}
		}
	}
	out.extra["ops_per_s"] = float64(len(out.lat)) / busy.Seconds()
	out.snr = mean(snrs["fcnn"])
	for name, xs := range snrs {
		out.extra["snr_db."+name] = mean(xs)
	}
	return out, nil
}

func (o *offline) layerInputs(n int) []layerInput {
	var ins []layerInput
	for k := 0; k < n; k++ {
		dt, frac, sseed := o.input(k)
		ins = append(ins, layerInput{dt: dt, frac: frac, samplerSeed: sseed, roi: o.boxes[k%offlineInputs], wire: recon.Full(o.f.spec)})
	}
	return ins
}
