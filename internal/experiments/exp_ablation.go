package experiments

import (
	"context"
	"fmt"
	"time"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/features"
	"fillvoid/internal/interp"
	"fillvoid/internal/nn"
)

// Fig6 regenerates the hidden-layer-depth ablation: average SNR on the
// Isabel dataset when the FCNN has 1 through 9 hidden layers. The paper
// finds a sweet spot at five (≈28 dB there vs ≈20 at one layer and ≈25
// at nine).
func Fig6(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	spec := interp.SpecOf(truth)
	res := &Result{
		ID:      "fig6",
		Title:   "Average SNR vs number of hidden layers (Isabel)",
		Columns: []string{"hidden_layers", "widths", "avg_snr_dB"},
	}
	evalFracs := []float64{0.01, 0.02, 0.03}
	widest := cfg.Scale.Hidden[0]
	for layers := 1; layers <= 9; layers++ {
		opts := cfg.coreOptions()
		opts.Hidden = nn.PyramidHidden(layers, widest)
		model, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), opts)
		if err != nil {
			return nil, err
		}
		total := 0.0
		for _, frac := range evalFracs {
			cloud, _, err := cfg.sampler(301).Sample(truth, gen.FieldName(), frac)
			if err != nil {
				return nil, err
			}
			recon, err := model.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			total += snr(truth, recon)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(layers), fmt.Sprint(opts.Hidden), fmtF(total / float64(len(evalFracs))),
		})
		cfg.logf("[fig6] %d hidden layers done", layers)
	}
	res.Notes = append(res.Notes,
		"expected shape: quality rises from 1 layer, peaks mid-depth, dips again at 9 (overfitting)")
	return res, nil
}

// Fig7 regenerates the training-fraction ablation: models trained on 1%
// samples only, 5% only, and the concatenated 1%+5% set, each evaluated
// across the full sampling sweep. The combined model should be strong
// at both ends; single-fraction models degrade at the opposite end.
func Fig7(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	spec := interp.SpecOf(truth)
	variants := []struct {
		label     string
		fractions []float64
	}{
		{"train_1pct", []float64{0.01}},
		{"train_5pct", []float64{0.05}},
		{"train_1+5pct", []float64{0.01, 0.05}},
	}
	res := &Result{
		ID:      "fig7",
		Title:   "SNR vs sampling %: effect of the training sampling percentage (Isabel)",
		Columns: []string{"sampling", "train_1pct", "train_5pct", "train_1+5pct"},
	}
	models := make([]*core.FCNN, len(variants))
	for i, v := range variants {
		opts := cfg.coreOptions()
		opts.TrainFractions = v.fractions
		m, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), opts)
		if err != nil {
			return nil, err
		}
		models[i] = m
		cfg.logf("[fig7] trained %s", v.label)
	}
	for _, frac := range cfg.Scale.Fractions {
		cloud, _, err := cfg.sampler(401).Sample(truth, gen.FieldName(), frac)
		if err != nil {
			return nil, err
		}
		row := []string{fmtPct(frac)}
		for _, m := range models {
			recon, err := m.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtF(snr(truth, recon)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"expected shape: 1%-trained flat/weak at high sampling; 5%-trained weak at low; 1%+5% strong at both ends")
	return res, nil
}

// Fig8 regenerates the gradient-supervision ablation: SNR across the
// sampling sweep for the standard 4-output network (value + gradients)
// vs a value-only network.
func Fig8(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	spec := interp.SpecOf(truth)
	res := &Result{
		ID:      "fig8",
		Title:   "SNR vs sampling %: gradient vs no-gradient output layer (Isabel)",
		Columns: []string{"sampling", "with_gradient", "without_gradient"},
	}
	withOpts := cfg.coreOptions()
	withoutOpts := cfg.coreOptions()
	withoutOpts.Features = features.Config{K: 5, WithGradients: false}
	withModel, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), withOpts)
	if err != nil {
		return nil, err
	}
	cfg.logf("[fig8] gradient model trained")
	withoutModel, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), withoutOpts)
	if err != nil {
		return nil, err
	}
	cfg.logf("[fig8] no-gradient model trained")
	for _, frac := range cfg.Scale.Fractions {
		cloud, _, err := cfg.sampler(501).Sample(truth, gen.FieldName(), frac)
		if err != nil {
			return nil, err
		}
		r1, err := withModel.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		r2, err := withoutModel.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{fmtPct(frac), fmtF(snr(truth, r1)), fmtF(snr(truth, r2))})
	}
	res.Notes = append(res.Notes,
		"expected shape: the gradient-supervised network tracks at or above the value-only network")
	return res, nil
}

// Fig14 regenerates the training-subset quality sweep: SNR across the
// sampling sweep when the FCNN trains on 100%, 50%, and 25% of the
// training rows. The paper finds the quality loss negligible.
func Fig14(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	spec := interp.SpecOf(truth)
	res := &Result{
		ID:      "fig14",
		Title:   "SNR vs sampling %: training on 100/50/25% of the training data (Isabel)",
		Columns: []string{"sampling", "train_100pct", "train_50pct", "train_25pct"},
	}
	subsets := []float64{1.0, 0.5, 0.25}
	models := make([]*core.FCNN, len(subsets))
	for i, sub := range subsets {
		opts := cfg.coreOptions()
		if opts.MaxTrainRows > 0 {
			opts.MaxTrainRows = int(float64(opts.MaxTrainRows) * sub)
		} else if sub < 1 {
			// Unlimited base: emulate the subset by capping at the full
			// training-set size times the fraction.
			full := truth.Len() * 2 // ~99% + ~95% void rows
			opts.MaxTrainRows = int(float64(full) * sub)
		}
		m, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), opts)
		if err != nil {
			return nil, err
		}
		models[i] = m
		cfg.logf("[fig14] trained on %.0f%% of rows", sub*100)
	}
	for _, frac := range cfg.Scale.Fractions {
		cloud, _, err := cfg.sampler(601).Sample(truth, gen.FieldName(), frac)
		if err != nil {
			return nil, err
		}
		row := []string{fmtPct(frac)}
		for _, m := range models {
			recon, err := m.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtF(snr(truth, recon)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"expected shape: the three curves nearly coincide (subsampling the training set is nearly free)")
	return res, nil
}

// Table1 regenerates the training-time table: wall-clock seconds for
// full training on each dataset at its (scaled) resolution, plus the
// Isabel double-resolution row.
func Table1(ctx context.Context, cfg *Config) (*Result, error) {
	res := &Result{
		ID:      "table1",
		Title:   fmt.Sprintf("Training time for %d epochs", cfg.Scale.Epochs),
		Columns: []string{"dataset", "resolution", "train_rows", "training_time_s"},
	}
	gens, err := cfg.datasetsFor()
	if err != nil {
		return nil, err
	}
	type job struct {
		gen    datasets.Generator
		nx, ny int
		nz     int
	}
	var jobs []job
	for _, gen := range gens {
		nx, ny, nz := cfg.dims(gen)
		jobs = append(jobs, job{gen, nx, ny, nz})
		if gen.Name() == "isabel" {
			// The paper's Table I includes Isabel at 2x resolution.
			jobs = append(jobs, job{gen, nx * 2, ny * 2, nz * 2})
		}
	}
	for _, j := range jobs {
		truth := datasets.Volume(j.gen, j.nx, j.ny, j.nz, trainTimestep(j.gen))
		opts := cfg.coreOptions()
		start := time.Now()
		model, err := core.Pretrain(truth, j.gen.FieldName(), cfg.sampler(0), opts)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		rows := "<= " + fmt.Sprint(opts.MaxTrainRows)
		if opts.MaxTrainRows == 0 {
			rows = "full"
		}
		_ = model
		res.Rows = append(res.Rows, []string{
			j.gen.Name(),
			fmt.Sprintf("%dx%dx%d", j.nx, j.ny, j.nz),
			rows,
			fmtF(elapsed),
		})
		cfg.logf("[table1] %s %dx%dx%d done in %.1fs", j.gen.Name(), j.nx, j.ny, j.nz, elapsed)
	}
	res.Notes = append(res.Notes,
		"paper (A100 GPU, full data): isabel 533s, isabel@2x 3737s, combustion 829s, ionization 5522s",
		"expected shape: time grows with resolution; isabel@2x >> isabel")
	return res, nil
}

// Table2 regenerates the training-time-vs-subset table for Isabel:
// 100%, 50% and 25% of the training rows. Time should fall roughly
// linearly with the subset size (the paper: 533s / 275s / 161s).
func Table2(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	truth := cfg.truthAt(gen, trainTimestep(gen))
	res := &Result{
		ID:      "table2",
		Title:   fmt.Sprintf("Effect of training-set subsampling on training time (%d epochs, Isabel)", cfg.Scale.Epochs),
		Columns: []string{"pct_of_training_data", "training_time_s"},
	}
	base := cfg.coreOptions().MaxTrainRows
	if base == 0 {
		base = truth.Len() * 2
	}
	for _, sub := range []float64{1.0, 0.5, 0.25} {
		opts := cfg.coreOptions()
		opts.MaxTrainRows = int(float64(base) * sub)
		start := time.Now()
		if _, err := core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), opts); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f", sub*100),
			fmtF(time.Since(start).Seconds()),
		})
		cfg.logf("[table2] %.0f%% done", sub*100)
	}
	res.Notes = append(res.Notes,
		"expected shape: time scales ~linearly with the training-set fraction (paper: 533/275/161 s)")
	return res, nil
}
