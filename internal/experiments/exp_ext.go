package experiments

import (
	"context"
	"fmt"
	"time"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/ensemble"
	"fillvoid/internal/interp"
	"fillvoid/internal/sampling"
)

// The ext* experiments go beyond the paper's published tables/figures
// to its stated future-work directions and implicit design choices:
//
//	ext-select       intelligent training-set creation (Section V)
//	ext-uncertainty  deep-ensemble uncertainty (Section V)
//	ext-case2        Case 1 vs Case 2 fine-tuning trade-off (Fig 5 text)
//	ext-samplers     sensitivity to the sampling method (Section II)

// ExtSelect compares uniform training-row selection (the paper's Table
// II protocol) against gradient-weighted selection at aggressive
// training-set reductions.
func ExtSelect(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	spec := interp.SpecOf(truth)
	res := &Result{
		ID:      "ext-select",
		Title:   "Training-row selection: uniform vs gradient-weighted (Isabel)",
		Columns: []string{"rows_kept", "selection", "train_time_s", "snr_1pct", "snr_3pct"},
	}
	base := cfg.coreOptions().MaxTrainRows
	if base == 0 {
		base = truth.Len()
	}
	for _, keep := range []float64{0.5, 0.25, 0.1} {
		for _, sel := range []core.RowSelection{core.SelectUniform, core.SelectGradient} {
			opts := cfg.coreOptions()
			opts.MaxTrainRows = int(float64(base) * keep)
			opts.RowSelection = sel
			start := time.Now()
			model, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), opts)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start).Seconds()
			row := []string{fmt.Sprintf("%.0f%%", keep*100), sel.String(), fmtF(elapsed)}
			for _, frac := range []float64{0.01, 0.03} {
				cloud, _, err := cfg.sampler(901).Sample(truth, gen.FieldName(), frac)
				if err != nil {
					return nil, err
				}
				recon, err := model.Reconstruct(cloud, spec)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtF(snr(truth, recon)))
			}
			res.Rows = append(res.Rows, row)
			cfg.logf("[ext-select] keep=%.0f%% sel=%s done", keep*100, sel)
		}
	}
	res.Notes = append(res.Notes,
		"hypothesis (paper Section V): weighting the kept rows toward feature-rich regions preserves quality at aggressive reductions")
	return res, nil
}

// ExtUncertainty evaluates a deep ensemble: mean-reconstruction SNR vs
// a single model, plus the calibration of the predictive uncertainty.
func ExtUncertainty(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	spec := interp.SpecOf(truth)
	const members = 4

	cfg.logf("[ext-uncertainty] training %d-member ensemble...", members)
	ens, err := ensemble.Pretrain(truth, gen.FieldName(), members, cfg.Seed+11, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	single, _, err := cfg.pretrained(ctx, gen)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "ext-uncertainty",
		Title:   fmt.Sprintf("Deep-ensemble (%d members) reconstruction and uncertainty calibration (Isabel)", members),
		Columns: []string{"sampling", "snr_single", "snr_ensemble", "err_sigma_corr", "coverage_2sigma"},
	}
	for _, frac := range []float64{0.01, 0.03, 0.05} {
		cloud, _, err := cfg.sampler(902).Sample(truth, gen.FieldName(), frac)
		if err != nil {
			return nil, err
		}
		sRecon, err := single.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		mean, sigma, err := ens.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		rep, err := ensemble.Calibrate(truth, mean, sigma)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmtPct(frac), fmtF(snr(truth, sRecon)), fmtF(snr(truth, mean)),
			fmt.Sprintf("%.3f", rep.Correlation), fmt.Sprintf("%.3f", rep.Coverage2Sigma),
		})
		cfg.logf("[ext-uncertainty] @%s done", fmtPct(frac))
	}
	res.Notes = append(res.Notes,
		"err_sigma_corr: Pearson correlation between |error| and predicted sigma (useful uncertainty is clearly positive)",
		"coverage_2sigma: fraction of truth within mean +/- 2 sigma")
	return res, nil
}

// ExtCase2 quantifies the Case 1 vs Case 2 fine-tuning trade-off the
// paper describes around Fig 5: epochs to recover quality on a new
// timestep vs per-timestep model storage.
func ExtCase2(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	model, _, err := cfg.pretrained(ctx, gen)
	if err != nil {
		return nil, err
	}
	target := cfg.truthAt(gen, trainTimestep(gen)+gen.NumTimesteps()/3)
	spec := interp.SpecOf(target)
	cloud, _, err := cfg.sampler(903).Sample(target, gen.FieldName(), 0.03)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "ext-case2",
		Title:   "Fine-tuning: Case 1 (all layers) vs Case 2 (last two layers)",
		Columns: []string{"mode", "epochs", "snr_dB", "stored_params_per_step", "tune_time_s"},
	}
	runs := []struct {
		mode   core.FineTuneMode
		epochs int
	}{
		{core.FineTuneAll, cfg.Scale.FineTuneEpochs},
		{core.FineTuneLastTwo, cfg.Scale.FineTuneEpochs},
		{core.FineTuneLastTwo, cfg.Scale.Case2Epochs},
	}
	for _, r := range runs {
		tuned, err := model.Clone()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := tuned.FineTune(target, cfg.sampler(0), r.mode, r.epochs); err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		recon, err := tuned.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		stored := tuned.Network().ParamCount()
		if r.mode == core.FineTuneLastTwo {
			tuned.Network().FreezeAllButLast(2)
			stored = tuned.Network().TrainableParamCount()
			tuned.Network().UnfreezeAll()
		}
		res.Rows = append(res.Rows, []string{
			r.mode.String(), fmt.Sprint(r.epochs), fmtF(snr(target, recon)),
			fmt.Sprint(stored), fmtF(elapsed),
		})
		cfg.logf("[ext-case2] %s x%d done", r.mode, r.epochs)
	}
	res.Notes = append(res.Notes,
		"paper: Case 1 converges in ~10 epochs but stores the full model per step;",
		"Case 2 needs ~300-500 epochs but stores only the last two layers per step")
	return res, nil
}

// ExtSamplers measures how reconstruction quality depends on the in
// situ sampling method: the paper's importance sampler vs random and
// stratified baselines, for both the FCNN and linear reconstruction.
func ExtSamplers(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	model, truth, err := cfg.pretrained(ctx, gen)
	if err != nil {
		return nil, err
	}
	spec := interp.SpecOf(truth)
	res := &Result{
		ID:      "ext-samplers",
		Title:   "Reconstruction quality vs sampling method (Isabel)",
		Columns: []string{"sampler", "sampling", "fcnn_snr", "linear_snr"},
	}
	lin := &interp.Linear{Workers: cfg.Workers}
	for _, name := range []string{"importance", "random", "stratified"} {
		s, err := sampling.ByName(name, cfg.Seed+904)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.01, 0.03} {
			cloud, _, err := s.Sample(truth, gen.FieldName(), frac)
			if err != nil {
				return nil, err
			}
			fr, err := model.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			lr, err := lin.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				name, fmtPct(frac), fmtF(snr(truth, fr)), fmtF(snr(truth, lr)),
			})
		}
		cfg.logf("[ext-samplers] %s done", name)
	}
	res.Notes = append(res.Notes,
		"the paper adopts Biswas et al.'s importance sampler after observing better reconstructions than random sampling")
	return res, nil
}
