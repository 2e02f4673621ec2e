package experiments

import (
	"context"
	"fmt"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/interp"
)

// Fig11 regenerates the temporal-transfer experiment: Isabel over its 48
// timesteps at 3% sampling. Series: the linear baseline; two pretrained
// FCNNs (on timesteps ~1 and ~25) applied as-is; and the same two with
// 10 epochs of Case 1 fine-tuning per timestep. Pretrained models
// degrade away from their training timestep; fine-tuned models track
// above linear throughout.
func Fig11(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	const evalFrac = 0.03

	// The paper pretrains on timesteps 01 and 25 of 48.
	tEarly := 1
	tMid := gen.NumTimesteps() / 2

	opts := cfg.coreOptions()
	pretrainAt := func(t int) (*core.FCNN, error) {
		truth := cfg.truthAt(gen, t)
		cfg.logf("[fig11] pretraining at t=%02d...", t)
		return core.Pretrain(truth, gen.FieldName(), cfg.sampler(0), opts)
	}
	pfEarly, err := pretrainAt(tEarly)
	if err != nil {
		return nil, err
	}
	pfMid, err := pretrainAt(tMid)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "fig11",
		Title: fmt.Sprintf("SNR across Isabel timesteps @%s sampling", fmtPct(evalFrac)),
		Columns: []string{"timestep", "linear",
			fmt.Sprintf("fcnn_pf%02d", tEarly), fmt.Sprintf("fcnn_pf%02d", tMid),
			fmt.Sprintf("fcnn_pf%02d_finetuned", tEarly), fmt.Sprintf("fcnn_pf%02d_finetuned", tMid)},
	}

	stride := cfg.Scale.TimestepStride
	if stride < 1 {
		stride = 1
	}
	for t := 0; t < gen.NumTimesteps(); t += stride {
		truth := cfg.truthAt(gen, t)
		spec := interp.SpecOf(truth)
		cloud, _, err := cfg.sampler(701+int64(t)).Sample(truth, gen.FieldName(), evalFrac)
		if err != nil {
			return nil, err
		}
		lin, err := (&interp.Linear{Workers: cfg.Workers}).Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%02d", t), fmtF(snr(truth, lin))}
		for _, m := range []*core.FCNN{pfEarly, pfMid} {
			recon, err := m.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtF(snr(truth, recon)))
		}
		for _, m := range []*core.FCNN{pfEarly, pfMid} {
			tuned, err := m.Clone()
			if err != nil {
				return nil, err
			}
			if err := tuned.FineTune(truth, cfg.sampler(0), core.FineTuneAll, cfg.Scale.FineTuneEpochs); err != nil {
				return nil, err
			}
			recon, err := tuned.Reconstruct(cloud, spec)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtF(snr(truth, recon)))
		}
		res.Rows = append(res.Rows, row)
		cfg.logf("[fig11] t=%02d done", t)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("timestep stride %d (paper evaluates every timestep); fine-tune = %d epochs, all layers (Case 1)",
			stride, cfg.Scale.FineTuneEpochs),
		"expected shape: pretrained curves peak at their training timestep and decay away from it;",
		"fine-tuned curves stay above linear across the whole run")
	return res, nil
}

// Fig12 regenerates the optimization traces: per-epoch training loss of
// (a) full training from scratch and (b) 10-epoch Case 1 fine-tuning of
// a pretrained model on a new timestep. Fine-tuning starts at a much
// lower loss and converges within a handful of epochs.
func Fig12(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	model, _, err := cfg.pretrained(ctx, gen)
	if err != nil {
		return nil, err
	}
	fullLosses := model.Losses()

	later := cfg.truthAt(gen, trainTimestep(gen)+gen.NumTimesteps()/4)
	tuned, err := model.Clone()
	if err != nil {
		return nil, err
	}
	markBefore := len(tuned.Losses())
	if err := tuned.FineTune(later, cfg.sampler(0), core.FineTuneAll, cfg.Scale.FineTuneEpochs); err != nil {
		return nil, err
	}
	ftLosses := tuned.Losses()[markBefore:]

	res := &Result{
		ID:      "fig12",
		Title:   "Loss progression: (a) full training, (b) fine-tuning to a new timestep",
		Columns: []string{"epoch", "full_training_loss", "finetune_loss"},
	}
	n := len(fullLosses)
	if len(ftLosses) > n {
		n = len(ftLosses)
	}
	for e := 0; e < n; e++ {
		full, ft := "-", "-"
		if e < len(fullLosses) {
			full = fmt.Sprintf("%.6f", fullLosses[e])
		}
		if e < len(ftLosses) {
			ft = fmt.Sprintf("%.6f", ftLosses[e])
		}
		res.Rows = append(res.Rows, []string{fmt.Sprint(e), full, ft})
	}
	res.Notes = append(res.Notes,
		"expected shape: full training needs hundreds of epochs to converge;",
		"fine-tuning starts near the converged loss and settles within ~10 epochs")
	return res, nil
}
