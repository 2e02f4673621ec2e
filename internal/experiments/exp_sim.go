package experiments

import (
	"context"
	"fmt"

	"fillvoid/internal/core"
	"fillvoid/internal/interp"
	"fillvoid/internal/sim"
)

// ExtSim exercises the full method on genuinely simulated dynamics
// rather than the procedural analogs: an advection–diffusion run is
// stepped forward, an FCNN is pretrained on an early timestep, and
// reconstruction quality is tracked across later timesteps (zero-shot
// and with per-timestep Case 1 fine-tuning) against the linear
// baseline. This closes the loop on the paper's premise — the data
// really does come from a time-stepping solver here.
func ExtSim(ctx context.Context, cfg *Config) (*Result, error) {
	simCfg := sim.Config{
		NX: 32, NY: 32, NZ: 16,
		Diffusivity: 5e-4,
		FlowSpeed:   1,
		Seed:        cfg.Seed,
		Blobs:       5,
	}
	s, err := sim.New(simCfg)
	if err != nil {
		return nil, err
	}
	const (
		trainT   = 2
		evalFrac = 0.03
	)
	truth0 := s.At(trainT)
	cfg.logf("[ext-sim] pretraining on simulated timestep %d...", trainT)
	model, err := core.Pretrain(truth0, "scalar", cfg.sampler(0), cfg.coreOptions())
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID: "ext-sim",
		Title: fmt.Sprintf("Advection-diffusion simulation (%dx%dx%d): reconstruction across timesteps @%s",
			simCfg.NX, simCfg.NY, simCfg.NZ, fmtPct(evalFrac)),
		Columns: []string{"timestep", "linear", "fcnn_pretrained", "fcnn_finetuned"},
	}
	lin := &interp.Linear{Workers: cfg.Workers}
	for _, t := range []int{2, 6, 10, 14, 18} {
		truth := s.At(t)
		spec := interp.SpecOf(truth)
		cloud, _, err := cfg.sampler(1001+int64(t)).Sample(truth, "scalar", evalFrac)
		if err != nil {
			return nil, err
		}
		linRecon, err := lin.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		zero, err := model.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		tuned, err := model.Clone()
		if err != nil {
			return nil, err
		}
		if err := tuned.FineTune(truth, cfg.sampler(0), core.FineTuneAll, cfg.Scale.FineTuneEpochs); err != nil {
			return nil, err
		}
		ft, err := tuned.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(t), fmtF(snr(truth, linRecon)), fmtF(snr(truth, zero)), fmtF(snr(truth, ft)),
		})
		cfg.logf("[ext-sim] t=%d done", t)
	}
	res.Notes = append(res.Notes,
		"data source: conservative upwind advection-diffusion solver (internal/sim), not a procedural analog",
		"expected shape: pretrained quality decays as the scalar filaments and mixes; fine-tuning recovers it")
	return res, nil
}
