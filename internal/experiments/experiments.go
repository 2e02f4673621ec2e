// Package experiments regenerates every table and figure in the paper's
// evaluation (Section IV–V): workload generation, parameter sweeps,
// baselines, and row/series printing. Each experiment is registered
// under the paper's figure/table id ("fig9", "table1", ...) and runs at
// a configurable scale — "small" for laptop runs with the same shapes,
// "medium" for closer-to-paper sizes, "paper" for the full resolutions
// (hours of CPU time).
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/metrics"
	"fillvoid/internal/nn"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// Scale bundles every knob that trades runtime for fidelity.
type Scale struct {
	// Name identifies the scale ("small", "medium", "paper").
	Name string
	// Divisors maps dataset name to the resolution divisor applied to
	// the paper's native dims.
	Divisors map[string]int
	// Hidden is the FCNN hidden-layer stack.
	Hidden []int
	// Epochs is the full-training epoch count.
	Epochs int
	// FineTuneEpochs is the Case 1 fine-tune epoch count.
	FineTuneEpochs int
	// Case2Epochs is the Case 2 (last-two-layers) fine-tune epoch count.
	Case2Epochs int
	// MaxTrainRows caps the training set (0 = unlimited).
	MaxTrainRows int
	// BatchSize is the minibatch size.
	BatchSize int
	// TimestepStride subsamples the Fig 11 timestep sweep (1 = every
	// timestep like the paper).
	TimestepStride int
	// Fractions is the sampling-percentage sweep for the quality and
	// timing figures (the paper sweeps 0.1%–5%).
	Fractions []float64
}

// Scales returns the built-in scales.
func Scales() map[string]Scale {
	return map[string]Scale{
		"tiny": {
			Name:           "tiny",
			Divisors:       map[string]int{"isabel": 8, "combustion": 10, "ionization": 20},
			Hidden:         []int{48, 32, 16},
			Epochs:         40,
			FineTuneEpochs: 5,
			Case2Epochs:    60,
			MaxTrainRows:   6000,
			BatchSize:      256,
			TimestepStride: 12,
			Fractions:      []float64{0.01, 0.03, 0.05},
		},
		"small": {
			Name:           "small",
			Divisors:       map[string]int{"isabel": 5, "combustion": 5, "ionization": 10},
			Hidden:         []int{128, 64, 32, 16, 8},
			Epochs:         200,
			FineTuneEpochs: 10,
			Case2Epochs:    300,
			MaxTrainRows:   16000,
			BatchSize:      128,
			TimestepStride: 4,
			Fractions:      []float64{0.001, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.05},
		},
		"medium": {
			Name:           "medium",
			Divisors:       map[string]int{"isabel": 2, "combustion": 2, "ionization": 4},
			Hidden:         []int{256, 128, 64, 32, 16},
			Epochs:         400,
			FineTuneEpochs: 10,
			Case2Epochs:    400,
			MaxTrainRows:   120000,
			BatchSize:      256,
			TimestepStride: 2,
			Fractions:      []float64{0.001, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.05},
		},
		"paper": {
			Name:           "paper",
			Divisors:       map[string]int{"isabel": 1, "combustion": 1, "ionization": 1},
			Hidden:         nn.PaperHidden(),
			Epochs:         500,
			FineTuneEpochs: 10,
			Case2Epochs:    500,
			MaxTrainRows:   0,
			BatchSize:      256,
			TimestepStride: 1,
			Fractions:      []float64{0.001, 0.0025, 0.005, 0.01, 0.02, 0.03, 0.05},
		},
	}
}

// Config is the run configuration shared by all experiments.
type Config struct {
	Scale Scale
	// Dataset restricts multi-dataset experiments ("" = all three).
	Dataset string
	// Seed drives every stochastic component.
	Seed int64
	// OutDir receives rendered images (fig2/fig3); "" disables writes.
	OutDir string
	// Workers bounds parallelism (<= 0: all cores).
	Workers int
	// Quant selects quantized inference ("f16" or "int8") for methods
	// that support it (currently fcnn); "" runs full precision.
	Quant string
	// Quiet suppresses progress logging.
	Quiet bool
	// Log receives progress lines (defaults to io.Discard when Quiet).
	Log io.Writer

	mu     sync.Mutex
	models map[string]*core.FCNN
}

func (c *Config) logf(format string, args ...any) {
	if c.Quiet || c.Log == nil {
		return
	}
	//lint:allow errdrop: best-effort progress logging; a failing log writer must not abort an experiment
	fmt.Fprintf(c.Log, format+"\n", args...)
}

// Result is one regenerated table/figure: labeled columns and formatted
// rows, in the same arrangement the paper reports.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records workload parameters and any scale-related caveats.
	Notes []string
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(r.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return nil
}

// CSV renders the result as comma-separated values (header + rows).
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is one experiment regenerating one table or figure.
type Runner struct {
	ID          string
	Title       string
	Description string
	Run         func(ctx context.Context, cfg *Config) (*Result, error)
}

// Registry lists every experiment keyed by id, ordered as in the paper.
func Registry() []Runner {
	return []Runner{
		{"fig2", "Qualitative: combustion @1%, FCNN vs linear", "renders slice images and reports SNR", Fig2},
		{"fig3", "Qualitative: ionization @1%, FCNN vs natural neighbor", "renders slice images and reports SNR", Fig3},
		{"fig6", "SNR vs number of hidden layers (Isabel)", "depth ablation, 1-9 hidden layers", Fig6},
		{"fig7", "SNR vs sampling %% for 1%%-, 5%%-, 1%%+5%%-trained models", "training-fraction ablation", Fig7},
		{"fig8", "SNR with vs without gradient outputs", "gradient-supervision ablation", Fig8},
		{"fig9", "Reconstruction quality (SNR) vs sampling %%, all methods", "the headline quality comparison", Fig9},
		{"fig10", "Reconstruction time vs sampling %%, all methods", "the headline timing comparison", Fig10},
		{"fig11", "SNR across Isabel timesteps @3%: pretrained vs fine-tuned vs linear", "temporal transfer", Fig11},
		{"fig12", "Loss vs epoch: full training vs fine-tuning", "optimization traces", Fig12},
		{"fig13", "Upscaling: low-res model reconstructing 2x resolution", "cross-resolution transfer", Fig13},
		{"fig14", "SNR when training on 100/50/25%% of the training data", "training-set subsampling quality", Fig14},
		{"table1", "Training time for full training per dataset/resolution", "wall-clock training cost", Table1},
		{"table2", "Training time vs training-data fraction (Isabel)", "training cost scaling", Table2},
		{"ext-select", "Extension: uniform vs gradient-weighted training-row selection", "the paper's 'intelligent training set creation' future work", ExtSelect},
		{"ext-uncertainty", "Extension: deep-ensemble reconstruction uncertainty", "the paper's uncertainty future work", ExtUncertainty},
		{"ext-case2", "Extension: Case 1 vs Case 2 fine-tuning trade-off", "epochs/storage trade-off described around Fig 5", ExtCase2},
		{"ext-samplers", "Extension: sensitivity to the in situ sampling method", "importance vs random vs stratified", ExtSamplers},
		{"ext-viz", "Extension: isosurface and volume-render fidelity", "quality at the level of the motivating visualization tasks", ExtViz},
		{"ext-sim", "Extension: reconstruction of a real advection-diffusion simulation", "the pipeline on genuinely time-stepped dynamics", ExtSim},
	}
}

// RunnerByID finds an experiment by id.
func RunnerByID(id string) (Runner, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (want one of %v)", id, ids)
}

// --- shared helpers ---

// dims returns the scaled grid dims for a dataset.
func (c *Config) dims(gen datasets.Generator) (int, int, int) {
	div := c.Scale.Divisors[gen.Name()]
	if div < 1 {
		div = 1
	}
	return gen.DefaultDims(div)
}

// truthAt materializes the scaled ground-truth volume at a timestep.
func (c *Config) truthAt(gen datasets.Generator, t int) *grid.Volume {
	nx, ny, nz := c.dims(gen)
	return datasets.Volume(gen, nx, ny, nz, t)
}

// trainTimestep is the timestep every single-timestep experiment trains
// and evaluates on — mid-run, where the features are well developed.
func trainTimestep(gen datasets.Generator) int { return gen.NumTimesteps() / 4 }

// coreOptions maps the scale onto core.Options.
func (c *Config) coreOptions() core.Options {
	return core.Options{
		Hidden:         c.Scale.Hidden,
		Epochs:         c.Scale.Epochs,
		FineTuneEpochs: c.Scale.FineTuneEpochs,
		TrainFractions: []float64{0.01, 0.05},
		MaxTrainRows:   c.Scale.MaxTrainRows,
		BatchSize:      c.Scale.BatchSize,
		Workers:        c.Workers,
		Seed:           c.Seed,
	}
}

// pretrained returns (building and caching on first use) the standard
// 1%+5%-trained FCNN for a dataset at this scale.
func (c *Config) pretrained(ctx context.Context, gen datasets.Generator) (*core.FCNN, *grid.Volume, error) {
	key := gen.Name()
	t := trainTimestep(gen)
	truth := c.truthAt(gen, t)
	c.mu.Lock()
	if c.models == nil {
		c.models = make(map[string]*core.FCNN)
	}
	if m, ok := c.models[key]; ok {
		c.mu.Unlock()
		return m, truth, nil
	}
	c.mu.Unlock()

	c.logf("[%s] pretraining FCNN (%v hidden, %d epochs)...", gen.Name(), c.Scale.Hidden, c.Scale.Epochs)
	ctx, sp := telemetry.Default().Start(ctx, "experiments/pretrain/"+gen.Name())
	start := time.Now()
	m, err := core.PretrainResumable(ctx, truth, gen.FieldName(), c.sampler(0), c.coreOptions(), core.Checkpointing{})
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	c.logf("[%s] pretraining done in %s", gen.Name(), time.Since(start).Round(time.Millisecond))

	c.mu.Lock()
	c.models[key] = m
	c.mu.Unlock()
	return m, truth, nil
}

// sampler returns the paper's importance sampler with a derived seed.
func (c *Config) sampler(salt int64) sampling.Sampler {
	return &sampling.Importance{Seed: c.Seed + salt}
}

// snr is a must-style SNR helper.
func snr(truth, recon *grid.Volume) float64 {
	s, err := metrics.SNR(truth, recon)
	if err != nil {
		return -999
	}
	return s
}

// datasetsFor returns the generators an experiment should iterate,
// honoring cfg.Dataset.
func (c *Config) datasetsFor() ([]datasets.Generator, error) {
	if c.Dataset != "" {
		g, err := datasets.ByName(c.Dataset, c.Seed)
		if err != nil {
			return nil, err
		}
		return []datasets.Generator{g}, nil
	}
	var gens []datasets.Generator
	for _, name := range []string{"isabel", "combustion", "ionization"} {
		g, err := datasets.ByName(name, c.Seed)
		if err != nil {
			return nil, err
		}
		gens = append(gens, g)
	}
	return gens, nil
}

// fmtF formats a float compactly for table cells.
func fmtF(x float64) string { return fmt.Sprintf("%.2f", x) }

// fmtPct formats a sampling fraction as the paper writes it ("0.5%").
func fmtPct(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", f*100), "0"), ".") + "%"
}

// methods resolves a named method lineup through one registry holding
// the rule-based baselines plus the trained model (as "fcnn"), so the
// neural method is not special-cased anywhere in the harness.
func (cfg *Config) methods(model *core.FCNN, names ...string) ([]interp.Reconstructor, error) {
	reg := interp.StandardRegistry(cfg.Workers)
	if model != nil {
		reg.RegisterMethod(model)
	}
	out := make([]interp.Reconstructor, 0, len(names))
	for _, name := range names {
		m, err := reg.Get(name)
		if err != nil {
			return nil, err
		}
		if cfg.Quant != "" {
			if qm, ok := m.(interface {
				WithQuant(string) (interp.Reconstructor, error)
			}); ok {
				if m, err = qm.WithQuant(cfg.Quant); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, m)
	}
	return out, nil
}
