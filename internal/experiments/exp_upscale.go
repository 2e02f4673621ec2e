package experiments

import (
	"context"
	"fmt"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/interp"
	"fillvoid/internal/mathutil"
)

// Fig13 regenerates the volume-upscaling experiment: an FCNN pretrained
// on the low-resolution Isabel grid reconstructs samples taken from a
// 2x-per-axis higher-resolution grid that additionally spans a shifted
// spatial domain (the paper modifies the extent so the high-res data
// covers different physics). Series: linear baseline, an FCNN fully
// trained on the high-res data (upper reference), and the low-res model
// fine-tuned for ~10 epochs.
func Fig13(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	t := trainTimestep(gen)

	// Low-resolution training grid over the unit cube.
	nx, ny, nz := cfg.dims(gen)
	lowRes := cfg.truthAt(gen, t)

	// High-resolution target: 2x per axis over a shifted, smaller
	// spatial domain (different physics than the training extent).
	hx, hy, hz := 2*nx, 2*ny, 2*nz
	origin := mathutil.Vec3{X: 0.3, Y: 0.3, Z: 0.1}
	size := mathutil.Vec3{X: 0.65, Y: 0.65, Z: 0.8}
	spacing := mathutil.Vec3{
		X: size.X / float64(hx-1),
		Y: size.Y / float64(hy-1),
		Z: size.Z / float64(hz-1),
	}
	hiRes := datasets.VolumeOnDomain(gen, hx, hy, hz, t, origin, spacing)
	spec := interp.SpecOf(hiRes)

	opts := cfg.coreOptions()
	cfg.logf("[fig13] pretraining low-res model (%dx%dx%d)...", nx, ny, nz)
	lowModel, err := core.Pretrain(lowRes, gen.FieldName(), cfg.sampler(0), opts)
	if err != nil {
		return nil, err
	}
	cfg.logf("[fig13] training full high-res reference model (%dx%dx%d)...", hx, hy, hz)
	hiModel, err := core.Pretrain(hiRes, gen.FieldName(), cfg.sampler(0), opts)
	if err != nil {
		return nil, err
	}
	cfg.logf("[fig13] fine-tuning low-res model to the high-res domain...")
	tuned, err := lowModel.Clone()
	if err != nil {
		return nil, err
	}
	if err := tuned.FineTune(hiRes, cfg.sampler(0), core.FineTuneAll, cfg.Scale.FineTuneEpochs); err != nil {
		return nil, err
	}

	res := &Result{
		ID: "fig13",
		Title: fmt.Sprintf("Upscaling %dx%dx%d -> %dx%dx%d over a shifted domain (Isabel)",
			nx, ny, nz, hx, hy, hz),
		Columns: []string{"sampling", "linear", "fcnn_full_hires", "fcnn_lowres_finetuned"},
	}
	for _, frac := range cfg.Scale.Fractions {
		cloud, _, err := cfg.sampler(801).Sample(hiRes, gen.FieldName(), frac)
		if err != nil {
			return nil, err
		}
		lin, err := (&interp.Linear{Workers: cfg.Workers}).Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		full, err := hiModel.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		ft, err := tuned.Reconstruct(cloud, spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmtPct(frac), fmtF(snr(hiRes, lin)), fmtF(snr(hiRes, full)), fmtF(snr(hiRes, ft)),
		})
		cfg.logf("[fig13] @%s done", fmtPct(frac))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fine-tune = %d epochs, all layers; high-res domain origin %+v size %+v",
			cfg.Scale.FineTuneEpochs, origin, size),
		"expected shape: fine-tuned low-res model approaches the fully-trained high-res model, both above linear")
	return res, nil
}
