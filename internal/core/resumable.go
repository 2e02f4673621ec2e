package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/features"
	"fillvoid/internal/grid"
	"fillvoid/internal/nn"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// ErrStopped is returned by the resumable training entry points when
// their context is cancelled: the run halted cleanly on an epoch
// boundary after writing a final checkpoint, and a later call with
// Checkpointing.Resume picks up exactly where it stopped.
var ErrStopped = nn.ErrStopped

// ErrCheckpoint wraps a failure to persist a periodic or final
// checkpoint. Callers that schedule training (the server's job layer)
// match on it to tell a storage hiccup — the run is resumable from the
// last intact checkpoint — apart from a genuine training error.
var ErrCheckpoint = errors.New("core: checkpoint write failed")

// Checkpointing configures crash-safe training for PretrainResumable
// and FineTuneResumable. The zero value trains without checkpoints.
type Checkpointing struct {
	// Manager owns the checkpoint directory. Nil writes no checkpoints
	// (and Resume is then an error).
	Manager *checkpoint.Manager
	// Every is the epoch period between periodic checkpoints (default
	// 25). A final checkpoint is always written on cancellation.
	Every int
	// Resume loads the newest intact checkpoint before training and
	// continues from it; without one (fresh directory) training starts
	// from scratch. The checkpointed configuration hash must match the
	// current run's — resuming under different options, field, or grid
	// geometry is refused rather than silently diverging.
	Resume bool
	// Observer, when non-nil, receives the run's per-epoch EpochStats in
	// addition to the telemetry registry's own train series. The server's
	// job layer uses it to surface live epoch/loss progress for a running
	// training job.
	Observer telemetry.TrainObserver
}

// observe wires the run's observers onto net: the caller-supplied one
// (job progress) plus the registry train series when telemetry is on.
func (ck Checkpointing) observe(net *nn.Network, reg *telemetry.Registry, series string) {
	var obs []telemetry.TrainObserver
	if ck.Observer != nil {
		obs = append(obs, ck.Observer)
	}
	if reg.Enabled() {
		obs = append(obs, reg.Train(series))
	}
	switch len(obs) {
	case 0:
	case 1:
		net.SetObserver(obs[0])
	default:
		net.SetObserver(telemetry.MultiObserver(obs))
	}
}

func (ck Checkpointing) every() int {
	if ck.Every <= 0 {
		return 25
	}
	return ck.Every
}

// trainPayload is the checkpoint payload for core-level training runs:
// the complete network training state plus the pieces of FCNN identity
// a restarted process cannot rebuild from flags alone.
type trainPayload struct {
	State     *nn.TrainState
	Norm      features.Normalizer
	FieldName string
	// StartEpochs is the network's lifetime epoch count when the run
	// began (0 for pretraining; the pretrained count for fine-tuning), so
	// a resume can compute how many of the run's budgeted epochs remain.
	StartEpochs int
}

// configHash fingerprints everything that must match between the
// checkpointed run and the resuming one for bit-identical replay:
// the training options, field name, grid geometry, and run kind. The
// epoch budgets are deliberately excluded — they only decide when to
// stop, not what any epoch computes, so a resumed run may extend or
// shrink the budget (e.g. "train 100 more epochs").
func configHash(kind, fieldName string, truth *grid.Volume, opts Options) uint64 {
	opts.Epochs = 0
	opts.FineTuneEpochs = 0
	// JSON, not gob: gob streams embed process-global type ids that
	// depend on what the process encoded earlier, so the same config
	// would hash differently in (say) a freshly restarted server that
	// decodes its job inputs before hashing. JSON bytes depend only on
	// the values (struct field order is fixed and float64 marshaling is
	// exact), which keeps the hash stable across processes — the whole
	// point of validating a checkpoint against it.
	//lint:allow errdrop: JSON-encoding this all-concrete struct cannot fail; a hypothetical collision is caught by the shape checks in nn.Resume
	b, _ := json.Marshal(struct {
		Kind  string
		Field string
		Dims  [3]int
		Opts  Options
	}{kind, fieldName, [3]int{truth.NX, truth.NY, truth.NZ}, opts})
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// loadResume fetches the newest intact checkpoint and validates it
// against the current configuration. A fresh directory (ErrNoCheckpoint)
// returns a nil payload and no error: start from scratch.
func loadResume(ck Checkpointing, hash uint64) (*trainPayload, error) {
	if ck.Manager == nil {
		return nil, errors.New("core: Checkpointing.Resume requires a Manager")
	}
	var p trainPayload
	meta, err := ck.Manager.LoadLatest(&p)
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if meta.ConfigHash != hash {
		return nil, fmt.Errorf("core: checkpoint in %s was written by a different configuration (hash %#x, want %#x)",
			ck.Manager.Dir(), meta.ConfigHash, hash)
	}
	if p.State == nil {
		return nil, fmt.Errorf("core: checkpoint in %s has no training state", ck.Manager.Dir())
	}
	return &p, nil
}

// sink returns the RunOptions checkpoint callback: it wraps each
// captured training state in the run's identity payload and hands it to
// the manager for an atomic write. Without a manager it is nil, so the
// run writes no checkpoints.
func sink(ck Checkpointing, hash uint64, norm *features.Normalizer, fieldName string, startEpochs int) func(*nn.TrainState) error {
	if ck.Manager == nil {
		return nil
	}
	return func(ts *nn.TrainState) error {
		_, err := ck.Manager.Save(checkpoint.Meta{
			Epoch:      ts.Epoch(),
			ConfigHash: hash,
			RNGState:   ts.Shuffle,
		}, trainPayload{State: ts, Norm: *norm, FieldName: fieldName, StartEpochs: startEpochs})
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
		return nil
	}
}

// PretrainResumable is Pretrain under a context: cancelling ctx stops
// training at the next epoch boundary with ErrStopped, and the stage
// spans join ctx's trace. With ck.Manager set it is crash safe:
// periodic atomic checkpoints, a final checkpoint on cancellation, and
// — with ck.Resume — continuation from the newest intact checkpoint.
// Because the minibatch-shuffle generator state is
// checkpointed alongside the optimizer state, an interrupted-and-resumed
// run produces bit-identical weights and losses to an uninterrupted one
// (same data, seed, and worker count). The training set itself is not
// checkpointed; it is rebuilt deterministically from the seeds.
func PretrainResumable(ctx context.Context, truth *grid.Volume, fieldName string, sampler sampling.Sampler, opts Options, ck Checkpointing) (*FCNN, error) {
	opts = opts.withDefaults()
	hash := configHash("pretrain", fieldName, truth, opts)

	var resume *trainPayload
	if ck.Resume {
		p, err := loadResume(ck, hash)
		if err != nil {
			return nil, err
		}
		resume = p
	}

	reg := telemetry.Default()
	ctx, sp := reg.Start(ctx, "pretrain")
	start := time.Now()
	ts, norm, err := buildTrainingSet(truth, fieldName, sampler, opts, nil, sp)
	if err != nil {
		return nil, err
	}

	var net *nn.Network
	epochsLeft := opts.Epochs
	var resumeVal *nn.ValState
	if resume != nil {
		net, err = nn.Resume(resume.State)
		if err != nil {
			return nil, err
		}
		done := resume.State.Epoch() - resume.StartEpochs
		epochsLeft = opts.Epochs - done
		resumeVal = resume.State.Val
		norm = &resume.Norm
		telemetry.Infof("pretrain resuming from checkpoint",
			"field", fieldName, "epochs_done", done, "epochs_left", epochsLeft)
	} else {
		net, err = nn.New(nn.Config{
			In:        opts.Features.InputWidth(),
			Out:       opts.Features.OutputWidth(),
			Hidden:    opts.Hidden,
			Seed:      opts.Seed,
			BatchSize: opts.BatchSize,
			Workers:   opts.Workers,
			Adam:      nn.AdamConfig{LearningRate: opts.LearningRate},
		})
		if err != nil {
			return nil, err
		}
	}
	ck.observe(net, reg, "pretrain")
	reg.Counter("core.pretrain.rows").Add(int64(ts.Len()))
	r := &FCNN{opts: opts, net: net, norm: norm, fieldName: fieldName, tm: &timings{}}
	run := nn.RunOptions{
		Ctx:             ctx,
		Checkpoint:      sink(ck, hash, norm, fieldName, 0),
		CheckpointEvery: ck.every(),
		ResumeVal:       resumeVal,
	}

	trainSp := sp.Child("train")
	var trainErr error
	if epochsLeft <= 0 {
		// The checkpoint already covers the full budget (e.g. the crash
		// hit after the last epoch's checkpoint): nothing left to run.
	} else if opts.ValidationFraction > 0 {
		train, val, err := ts.Split(opts.ValidationFraction, opts.Seed^0x5a11d)
		if err != nil {
			return nil, err
		}
		patience := opts.Patience
		if patience <= 0 {
			patience = 20
		}
		_, _, trainErr = net.TrainWithValidationOpts(train.X, train.Y, val.X, val.Y, epochsLeft, patience, run)
	} else {
		_, trainErr = net.TrainEpochsOpts(ts.X, ts.Y, epochsLeft, run)
	}
	trainSp.End()
	sp.End()
	elapsed := time.Since(start)
	r.tm.setTrain(elapsed)
	if trainErr != nil {
		if errors.Is(trainErr, ErrStopped) {
			// The final checkpoint is on disk; surface the partial model
			// too so a caller may keep using it in-process.
			return r, trainErr
		}
		return nil, trainErr
	}
	reg.Counter("core.pretrain.runs").Inc()
	telemetry.Infof("pretrain done",
		"field", fieldName, "rows", ts.Len(), "epochs", len(net.Losses),
		"params", net.ParamCount(), "dur", elapsed.Round(time.Millisecond))
	return r, nil
}

// FineTuneResumable is FineTune under a context, with the same
// cancellation, tracing and crash safety as PretrainResumable. The
// checkpoint directory must be distinct per
// fine-tuning run (e.g. one per timestep); with ck.Resume the run
// continues from the newest checkpoint in it, counting only this run's
// epochs against the budget.
func (r *FCNN) FineTuneResumable(ctx context.Context, truth *grid.Volume, sampler sampling.Sampler, mode FineTuneMode, epochs int, ck Checkpointing) error {
	opts := r.opts
	if epochs <= 0 {
		epochs = opts.FineTuneEpochs
		if mode == FineTuneLastTwo {
			epochs = opts.FineTuneEpochs * 30
		}
	}
	hash := configHash(fmt.Sprintf("finetune-%s", mode), r.fieldName, truth, opts)

	startEpochs := len(r.net.Losses)
	epochsLeft := epochs
	if ck.Resume {
		p, err := loadResume(ck, hash)
		if err != nil {
			return err
		}
		if p != nil {
			net, err := nn.Resume(p.State)
			if err != nil {
				return err
			}
			r.net = net
			startEpochs = p.StartEpochs
			done := p.State.Epoch() - p.StartEpochs
			epochsLeft = epochs - done
			telemetry.Infof("finetune resuming from checkpoint",
				"field", r.fieldName, "epochs_done", done, "epochs_left", epochsLeft)
		}
	}

	reg := telemetry.Default()
	ctx, sp := reg.Start(ctx, "finetune")
	start := time.Now()
	ts, _, err := buildTrainingSet(truth, r.fieldName, sampler, opts, r.norm, sp)
	if err != nil {
		return err
	}
	switch mode {
	case FineTuneAll:
		r.net.UnfreezeAll()
	case FineTuneLastTwo:
		r.net.FreezeAllButLast(2)
	default:
		return fmt.Errorf("core: unknown fine-tune mode %v", mode)
	}
	ck.observe(r.net, reg, "finetune")
	run := nn.RunOptions{
		Ctx:             ctx,
		Checkpoint:      sink(ck, hash, r.norm, r.fieldName, startEpochs),
		CheckpointEvery: ck.every(),
	}
	trainSp := sp.Child("train")
	var trainErr error
	if epochsLeft > 0 {
		_, trainErr = r.net.TrainEpochsOpts(ts.X, ts.Y, epochsLeft, run)
	}
	trainSp.End()
	if !errors.Is(trainErr, ErrStopped) {
		// Leave the freeze state checkpoint-accurate on interruption so a
		// resumed Case 2 run still trains only the last two layers.
		r.net.UnfreezeAll()
	}
	sp.End()
	elapsed := time.Since(start)
	r.tm.setTrain(elapsed)
	if trainErr != nil {
		return trainErr
	}
	reg.Counter("core.finetune.runs").Inc()
	telemetry.Infof("finetune done",
		"field", r.fieldName, "mode", mode, "rows", ts.Len(), "epochs", epochs,
		"dur", elapsed.Round(time.Millisecond))
	return nil
}
