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

// resume loads the newest intact checkpoint, validates it against the
// run's configuration hash and, when there is one, replaces r's network
// and normalizer with the checkpoint's. A fresh directory
// (ErrNoCheckpoint) leaves r as it is: start from scratch.
func (r *FCNN) resume(ck Checkpointing, hash uint64) error {
	if ck.Manager == nil {
		return errors.New("core: Checkpointing.Resume requires a Manager")
	}
	meta, payload, err := ck.Manager.LoadLatest()
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return err
	}
	if meta.ConfigHash != hash {
		return fmt.Errorf("core: checkpoint in %s was written by a different configuration (hash %#x, want %#x)",
			ck.Manager.Dir(), meta.ConfigHash, hash)
	}
	saved, err := decode(payload, nn.Resume)
	if err != nil {
		return fmt.Errorf("core: checkpoint in %s: %w", ck.Manager.Dir(), err)
	}
	r.net, r.norm = saved.net, saved.norm
	return nil
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
// checkpointed; it is rebuilt deterministically from the seeds. Only
// pretraining validates (Options.ValidationFraction).
func PretrainResumable(ctx context.Context, truth *grid.Volume, fieldName string, sampler sampling.Sampler, opts Options, ck Checkpointing) (*FCNN, error) {
	opts = opts.withDefaults()
	net, err := nn.New(nn.Config{
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
	r := &FCNN{opts: opts, net: net, fieldName: fieldName, tm: &timings{}}
	err = r.train(ctx, truth, sampler, "pretrain", opts.Epochs, ck, nil)
	if err != nil && !errors.Is(err, ErrStopped) {
		return nil, err
	}
	// On ErrStopped the final checkpoint is on disk; the partial model
	// is returned too, so a caller may keep using it in-process.
	return r, err
}

// FineTuneResumable is FineTune under a context, with the same
// cancellation, tracing and crash safety as PretrainResumable. The
// checkpoint directory must be distinct per
// fine-tuning run (e.g. one per timestep); with ck.Resume the run
// continues from the newest checkpoint in it, counting only this run's
// epochs against the budget.
func (r *FCNN) FineTuneResumable(ctx context.Context, truth *grid.Volume, sampler sampling.Sampler, mode FineTuneMode, epochs int, ck Checkpointing) error {
	if epochs <= 0 {
		epochs = r.opts.FineTuneEpochs
		if mode == FineTuneLastTwo {
			epochs = r.opts.FineTuneEpochs * 30
		}
	}
	var freeze func(*nn.Network)
	switch mode {
	case FineTuneAll:
		freeze = (*nn.Network).UnfreezeAll
	case FineTuneLastTwo:
		freeze = func(net *nn.Network) { net.FreezeAllButLast(2) }
	default:
		return fmt.Errorf("core: unknown fine-tune mode %v", mode)
	}
	err := r.train(ctx, truth, sampler, fmt.Sprintf("finetune-%s", mode), epochs, ck, freeze)
	if !errors.Is(err, ErrStopped) {
		// Leave the freeze state checkpoint-accurate on interruption so a
		// resumed Case 2 run still trains only the last two layers.
		r.net.UnfreezeAll()
	}
	return err
}

// train is the one resumable training run of r, pretraining's when
// freeze is nil and fine-tuning's otherwise: config hash, resume,
// training-set build, freeze, spans, timing, observers, checkpoints and
// logs. "pretrain" or "finetune" names the spans, the observer series
// and the counters; run names the configuration the hash covers. A
// resumed run trains what is left of the epoch budget; the training set
// is rebuilt from the seeds. Pretraining fits the normalizer and, when
// Options.ValidationFraction > 0, stops early on a held-out split;
// fine-tuning keeps the model's normalizer and refits only positions.
// A call that fails before training starts (in the resume, the
// training-set build, the checkpoint header or the validation split)
// leaves r's network and normalizer as they were.
func (r *FCNN) train(ctx context.Context, truth *grid.Volume, sampler sampling.Sampler, run string, epochs int, ck Checkpointing, freeze func(*nn.Network)) error {
	opts := r.opts
	pretrain := freeze == nil
	kind := "finetune"
	if pretrain {
		kind = "pretrain"
	}
	hash := configHash(run, r.fieldName, truth, opts)
	// cur is r, or r resumed; r adopts its network and normalizer when
	// training starts.
	cur := *r
	if ck.Resume {
		if err := cur.resume(ck, hash); err != nil {
			return err
		}
	}
	net := cur.net
	done := net.ResumedEpochs()
	if done > 0 {
		telemetry.Infof(kind+" resuming from checkpoint",
			"field", r.fieldName, "epochs_done", done, "epochs_left", epochs-done)
	}

	reg := telemetry.Default()
	ctx, sp := reg.Start(ctx, kind)
	start := time.Now()
	var base *features.Normalizer
	if !pretrain {
		base = cur.norm
	}
	ts, norm, err := buildTrainingSet(truth, r.fieldName, sampler, opts, base, sp)
	if err != nil {
		return err
	}
	if cur.norm == nil {
		cur.norm = norm
	}
	runOpts := nn.RunOptions{Ctx: ctx, CheckpointEvery: ck.every()}
	if ck.Manager != nil {
		hdr, err := cur.header()
		if err != nil {
			return err
		}
		runOpts.Checkpoint = func(state []byte) error {
			_, err := ck.Manager.Save(checkpoint.Meta{Epoch: len(net.Losses), ConfigHash: hash}, hdr, state)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCheckpoint, err)
			}
			return nil
		}
	}
	x, y := ts.X, ts.Y
	if pretrain && opts.ValidationFraction > 0 {
		train, val, err := ts.Split(opts.ValidationFraction, opts.Seed^0x5a11d)
		if err != nil {
			return err
		}
		patience := opts.Patience
		if patience <= 0 {
			patience = 20
		}
		x, y = train.X, train.Y
		runOpts.Validation = &nn.Validation{X: val.X, Y: val.Y, Patience: patience}
	}
	r.net, r.norm = net, cur.norm
	if freeze != nil {
		freeze(net)
	}
	ck.observe(net, reg, kind)
	if pretrain {
		reg.Counter("core.pretrain.rows").Add(int64(ts.Len()))
	}

	trainSp := sp.Child("train")
	// A run resumed at or past its budget trains no epoch, but a
	// validated one still restores its best weights.
	_, err = net.TrainEpochsOpts(x, y, max(epochs-done, 0), runOpts)
	trainSp.End()
	sp.End()
	elapsed := time.Since(start)
	r.tm.setTrain(elapsed)
	if err != nil {
		return err
	}
	reg.Counter("core." + kind + ".runs").Inc()
	telemetry.Infof(kind+" done",
		"field", r.fieldName, "run", run, "rows", ts.Len(), "epochs", len(net.Losses),
		"params", net.ParamCount(), "dur", elapsed.Round(time.Millisecond))
	return nil
}
