// Package stream operationalizes the paper's deployment story: an in
// situ pipeline attached to a running simulation that, at every
// timestep, (1) importance-samples the full field down to the storage
// budget, (2) keeps the FCNN reconstructor current — pretraining on the
// first timestep and fine-tuning on later ones (Case 1 or Case 2), and
// (3) reconstructs the full field from the stored samples, reporting
// quality, wall time, and the bytes that actually had to be stored
// (samples + per-timestep model state).
//
// The storage accounting mirrors Section IV-C: under Case 1 a full
// model per timestep must be stored if models are kept (or one model
// that is re-tuned on demand); under Case 2 only the last two layers
// change per timestep, so the per-step model cost shrinks to those
// layers after the first step.
package stream

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/codec"
	"fillvoid/internal/core"
	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/metrics"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// Config controls the pipeline.
type Config struct {
	// Fraction is the per-timestep storage budget (e.g. 0.01 for 1%).
	Fraction float64
	// Method names the reconstructor used in step 4 (default "fcnn").
	// Any registry name works — the trained model is registered
	// alongside the rule-based baselines, so e.g. "linear" reconstructs
	// the stored samples with the Delaunay baseline while the model is
	// still kept current for storage accounting.
	Method string
	// FieldName labels the stored scalar.
	FieldName string
	// Mode selects the fine-tuning strategy for timesteps after the
	// first (Case 1 = all layers, Case 2 = last two).
	Mode core.FineTuneMode
	// FineTuneEpochs overrides the per-step tuning epochs (0 = the
	// mode's default from Options).
	FineTuneEpochs int
	// Options configures the underlying FCNN.
	Options core.Options
	// SamplerSeed salts the per-timestep sampler streams.
	SamplerSeed int64
	// KeepModels stores a model snapshot per timestep (the Case 1 vs
	// Case 2 storage trade-off only matters when this is on).
	KeepModels bool
	// CompactStorage accounts sample bytes using the grid-index +
	// quantized-value codec instead of raw float64 quadruples.
	CompactStorage bool
	// ValueBits is the codec quantization depth (default 16) when
	// CompactStorage is on.
	ValueBits int
	// Telemetry receives the pipeline's spans and counters (nil: the
	// process-global telemetry.Default registry).
	Telemetry *telemetry.Registry
	// CheckpointDir, when set, makes every training phase crash-safe:
	// each timestep's pretrain/fine-tune writes atomic checkpoints under
	// CheckpointDir/tNNNN and resumes from them when the pipeline is
	// restarted on the same directory (see internal/checkpoint).
	CheckpointDir string
	// CheckpointEvery is the epoch period between checkpoints (default
	// 25) when CheckpointDir is set.
	CheckpointEvery int
	// CheckpointKeep is the per-timestep retention depth (default 3).
	CheckpointKeep int
}

// StepReport summarizes one pipeline step.
type StepReport struct {
	Timestep int
	// SNR of the reconstruction against this timestep's ground truth.
	SNR float64
	// SampleCount and SampleBytes are the stored point-cloud size
	// (x, y, z, value as float64 per point).
	SampleCount int
	SampleBytes int64
	// ModelBytes is the model state stored for this timestep:
	// the full parameter set on the first step or under Case 1 with
	// KeepModels; only the trainable (last two) layers under Case 2.
	// Zero when KeepModels is off and it is not the first step.
	ModelBytes int64
	// TrainTime covers pretraining (first step) or fine-tuning. It is
	// read from the model's own stage timer ((*core.FCNN).Timings), the
	// same measurement the "pretrain"/"finetune" telemetry spans record,
	// so the two can never disagree.
	TrainTime time.Duration
	// ReconTime covers sampling-to-volume reconstruction, read from the
	// same stage timer as the "reconstruct" telemetry span.
	ReconTime time.Duration
}

// Pipeline is an in situ sampling + reconstruction loop. Not safe for
// concurrent Step calls; a simulation advances one timestep at a time.
type Pipeline struct {
	cfg     Config
	model   *core.FCNN
	reports []StepReport
	// out is the reconstruction buffer, reused across timesteps so a
	// long-running pipeline does not reallocate a full-grid volume (and
	// its engine feature buffers) every step.
	out *grid.Volume
}

// New validates the configuration and returns an idle pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return nil, fmt.Errorf("stream: fraction %g outside (0, 1]", cfg.Fraction)
	}
	if cfg.FieldName == "" {
		return nil, errors.New("stream: FieldName is required")
	}
	if cfg.Method == "" {
		cfg.Method = "fcnn"
	}
	// Fail on a typo'd method at construction, not steps into a run. The
	// registry here mirrors the one Step resolves through.
	if cfg.Method != "fcnn" {
		if _, err := interp.StandardRegistry(cfg.Options.Workers).Get(cfg.Method); err != nil {
			return nil, err
		}
	}
	return &Pipeline{cfg: cfg}, nil
}

// Model returns the current reconstructor (nil before the first step).
func (p *Pipeline) Model() *core.FCNN { return p.model }

// Reports returns the per-step reports so far.
func (p *Pipeline) Reports() []StepReport { return p.reports }

// Step processes one simulation timestep: sample, train/tune,
// reconstruct, account. The full field `truth` is only available inside
// this call, as in a real in situ pipeline.
func (p *Pipeline) Step(truth *grid.Volume, t int) (StepReport, error) {
	return p.StepCtx(context.Background(), truth, t)
}

// StepCtx is Step with cancellation: the reconstruction phase runs
// through the recon engine's chunked executor and stops promptly when
// ctx is cancelled.
func (p *Pipeline) StepCtx(ctx context.Context, truth *grid.Volume, t int) (StepReport, error) {
	reg := p.telemetry()
	ctx, stepSp := reg.Start(ctx, "pipeline/step")
	defer stepSp.End()
	rep := StepReport{Timestep: t}
	sampler := &sampling.Importance{Seed: p.cfg.SamplerSeed + int64(t)*911}

	// 1. The stored artifact: the sampled cloud.
	sampleSp := stepSp.Child("sample")
	cloud, idxs, err := sampler.Sample(truth, p.cfg.FieldName, p.cfg.Fraction)
	sampleSp.End()
	if err != nil {
		return rep, err
	}
	rep.SampleCount = cloud.Len()
	if p.cfg.CompactStorage {
		rep.SampleBytes, err = codec.EncodedSize(truth, p.cfg.FieldName, idxs, codec.Options{ValueBits: p.cfg.ValueBits})
		if err != nil {
			return rep, err
		}
	} else {
		rep.SampleBytes = int64(cloud.Len()) * 4 * 8 // x, y, z, value float64
	}

	// 2. Keep the model current. The wall time is taken from the
	// model's own stage timer — the same measurement core's
	// pretrain/finetune telemetry spans record — rather than a second
	// clock around the call, so report and telemetry cannot drift.
	// Start rather than stepSp.Child: training takes the returned ctx,
	// so its own spans nest under this one in a trace.
	trainCtx, trainSp := reg.Start(ctx, "pipeline/step/train")
	first := p.model == nil
	err = p.train(trainCtx, truth, t, sampler)
	trainSp.End()
	if err != nil {
		return rep, err
	}
	rep.TrainTime, _ = p.model.Timings()

	// 3. Storage for model state.
	switch {
	case first:
		rep.ModelBytes = int64(p.model.Network().ParamCount()) * 8
	case p.cfg.KeepModels && p.cfg.Mode == core.FineTuneLastTwo:
		p.model.Network().FreezeAllButLast(2)
		rep.ModelBytes = int64(p.model.Network().TrainableParamCount()) * 8
		p.model.Network().UnfreezeAll()
	case p.cfg.KeepModels:
		rep.ModelBytes = int64(p.model.Network().ParamCount()) * 8
	}

	// 4. Reconstruct from the stored samples through the engine: resolve
	// the configured method from one registry holding the baselines plus
	// the current model, build the cloud's query plan, and execute into
	// the reused output buffer.
	methods := interp.StandardRegistry(p.cfg.Options.Workers)
	methods.RegisterMethod(p.model)
	m, err := methods.Get(p.cfg.Method)
	if err != nil {
		return rep, err
	}
	spec := interp.SpecOf(truth)
	if p.out == nil || p.out.NX != spec.NX || p.out.NY != spec.NY || p.out.NZ != spec.NZ {
		p.out = spec.NewVolume()
	} else {
		p.out.Origin = spec.Origin
		p.out.Spacing = spec.Spacing
	}
	reconCtx, reconSp := reg.Start(ctx, "pipeline/step/reconstruct")
	plan, err := recon.NewPlan(cloud, spec)
	if err != nil {
		reconSp.End()
		return rep, err
	}
	reconStart := time.Now()
	err = recon.ReconstructInto(reconCtx, m, plan, recon.Full(spec), p.out)
	reconSp.End()
	if err != nil {
		return rep, err
	}
	if p.cfg.Method == "fcnn" {
		// The model's own stage timer — the same measurement the
		// "reconstruct" telemetry span records.
		_, rep.ReconTime = p.model.Timings()
	} else {
		rep.ReconTime = time.Since(reconStart)
	}
	snr, err := metrics.SNR(truth, p.out)
	if err != nil {
		return rep, err
	}
	rep.SNR = snr
	reg.Counter("pipeline.steps").Inc()
	telemetry.Infof("pipeline step done",
		"t", t, "snr_db", fmt.Sprintf("%.2f", snr), "samples", rep.SampleCount,
		"train", rep.TrainTime.Round(time.Millisecond),
		"recon", rep.ReconTime.Round(time.Millisecond))

	p.reports = append(p.reports, rep)
	return rep, nil
}

// train pretrains the first model or fine-tunes the current one on
// truth, checkpointing per timestep when CheckpointDir is set.
func (p *Pipeline) train(ctx context.Context, truth *grid.Volume, t int, sampler sampling.Sampler) error {
	ck, err := p.stepCheckpointing(t)
	if err != nil {
		return err
	}
	if p.model != nil {
		return p.model.FineTuneResumable(ctx, truth, sampler, p.cfg.Mode, p.cfg.FineTuneEpochs, ck)
	}
	model, err := core.PretrainResumable(ctx, truth, p.cfg.FieldName, sampler, p.cfg.Options, ck)
	if err != nil {
		return err
	}
	p.model = model
	return nil
}

// stepCheckpointing builds the per-timestep checkpoint configuration:
// one subdirectory per timestep (each training run owns its directory),
// always resuming — a fresh directory is a normal cold start. Without a
// CheckpointDir it is the zero Checkpointing: no checkpoints.
func (p *Pipeline) stepCheckpointing(t int) (core.Checkpointing, error) {
	if p.cfg.CheckpointDir == "" {
		return core.Checkpointing{}, nil
	}
	m, err := checkpoint.NewManager(checkpoint.Config{
		Dir:       filepath.Join(p.cfg.CheckpointDir, fmt.Sprintf("t%04d", t)),
		Keep:      p.cfg.CheckpointKeep,
		Telemetry: p.telemetry(),
	})
	if err != nil {
		return core.Checkpointing{}, err
	}
	return core.Checkpointing{Manager: m, Every: p.cfg.CheckpointEvery, Resume: true}, nil
}

// telemetry returns the registry pipeline instrumentation records into.
func (p *Pipeline) telemetry() *telemetry.Registry {
	if p.cfg.Telemetry != nil {
		return p.cfg.Telemetry
	}
	return telemetry.Default()
}

// Totals aggregates storage and time across all steps so far.
func (p *Pipeline) Totals() (sampleBytes, modelBytes int64, trainTime, reconTime time.Duration) {
	for _, r := range p.reports {
		sampleBytes += r.SampleBytes
		modelBytes += r.ModelBytes
		trainTime += r.TrainTime
		reconTime += r.ReconTime
	}
	return
}

// CompressionRatio reports raw-field bytes divided by stored bytes
// (samples + model state) across all steps, for a volume of n points
// per timestep.
func (p *Pipeline) CompressionRatio(pointsPerStep int) float64 {
	sampleBytes, modelBytes, _, _ := p.Totals()
	stored := sampleBytes + modelBytes
	if stored == 0 {
		return 0
	}
	raw := int64(len(p.reports)) * int64(pointsPerStep) * 8
	return float64(raw) / float64(stored)
}
