package experiments

import (
	"context"
	"fmt"
	"path/filepath"

	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/iso"
	"fillvoid/internal/recon"
	"fillvoid/internal/render"
)

// ExtViz measures reconstruction quality at the level of the
// visualization tasks the paper motivates sampling with (Section I):
// isosurface contouring and volume rendering. For each method it
// reports the Chamfer distance between the isosurface extracted from
// the reconstruction and from the original field (in grid units), and
// the image-space RMSE of a volume render against the original's
// render. Field-level SNR is included for reference.
func ExtViz(ctx context.Context, cfg *Config) (*Result, error) {
	gen := datasets.NewIsabel(cfg.Seed)
	model, truth, err := cfg.pretrained(ctx, gen)
	if err != nil {
		return nil, err
	}
	spec := interp.SpecOf(truth)
	const frac = 0.01
	cloud, _, err := cfg.sampler(905).Sample(truth, gen.FieldName(), frac)
	if err != nil {
		return nil, err
	}

	// Isovalue: one standard deviation below the mean picks out the
	// storm's low-pressure structure.
	st := truth.Stats()
	isovalue := st.Mean() - st.StdDev()
	truthMesh, err := iso.Extract(truth, isovalue)
	if err != nil {
		return nil, err
	}
	ropts := render.Options{Lo: st.Min(), Hi: st.Max(), Workers: cfg.Workers}
	truthImg, err := render.Render(truth, ropts)
	if err != nil {
		return nil, err
	}
	if cfg.OutDir != "" {
		if err := truthImg.WritePPMFile(filepath.Join(cfg.OutDir, "ext-viz_original.ppm")); err != nil {
			return nil, err
		}
	}

	res := &Result{
		ID:      "ext-viz",
		Title:   fmt.Sprintf("Visualization-task fidelity @%s sampling (Isabel, isovalue %.1f)", fmtPct(frac), isovalue),
		Columns: []string{"method", "field_snr_dB", "isosurface_chamfer", "render_rmse"},
	}

	evalOne := func(name string, vol *grid.Volume) error {
		mesh, err := iso.Extract(vol, isovalue)
		if err != nil {
			return err
		}
		chamfer := -1.0
		if mesh.NumTriangles() > 0 && truthMesh.NumTriangles() > 0 {
			chamfer, err = iso.ChamferDistance(truthMesh, mesh)
			if err != nil {
				return err
			}
		}
		img, err := render.Render(vol, ropts)
		if err != nil {
			return err
		}
		rmse, err := render.RMSE(truthImg, img)
		if err != nil {
			return err
		}
		if cfg.OutDir != "" {
			if err := img.WritePPMFile(filepath.Join(cfg.OutDir, "ext-viz_"+name+".ppm")); err != nil {
				return err
			}
		}
		res.Rows = append(res.Rows, []string{
			name, fmtF(snr(truth, vol)), fmt.Sprintf("%.4f", chamfer), fmtF(rmse),
		})
		cfg.logf("[ext-viz] %s done", name)
		return nil
	}

	methods, err := cfg.methods(model, "fcnn", "linear", "natural", "shepard", "nearest")
	if err != nil {
		return nil, err
	}
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		return nil, err
	}
	for _, m := range methods {
		vol, err := recon.Reconstruct(ctx, m, plan, recon.Full(spec))
		if err != nil {
			return nil, err
		}
		if err := evalOne(m.Name(), vol); err != nil {
			return nil, err
		}
	}
	res.Notes = append(res.Notes,
		"isosurface_chamfer: mean surface-to-surface distance in world units (-1 = no surface extracted)",
		"render_rmse: volume-render pixel RMSE vs the original (0-255 scale)",
		"expected shape: the field-SNR ordering carries over to both visualization metrics")
	return res, nil
}
