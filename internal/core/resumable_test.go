package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path"
	"path/filepath"
	"testing"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// resumableOptions: a configuration small enough that a full pretrain
// takes well under a second, with Workers pinned for determinism.
func resumableOptions() Options {
	return Options{
		Hidden:         []int{24, 12},
		Epochs:         12,
		TrainFractions: []float64{0.03},
		MaxTrainRows:   1500,
		BatchSize:      64,
		Seed:           5,
		Workers:        2,
	}
}

func resumableVolume() *grid.Volume {
	gen := datasets.NewIsabel(3)
	return datasets.Volume(gen, 16, 16, 8, 4)
}

func resumableManager(t *testing.T, dir string) *checkpoint.Manager {
	t.Helper()
	m, err := checkpoint.NewManager(checkpoint.Config{Dir: dir, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// equalWeights asserts two models save to the same bytes, which hold
// the weights and the loss history.
func equalWeights(t *testing.T, a, b *FCNN) {
	t.Helper()
	if len(a.net.Losses) != len(b.net.Losses) {
		t.Fatalf("loss histories differ in length: %d vs %d", len(a.net.Losses), len(b.net.Losses))
	}
	for i := range a.net.Losses {
		if a.net.Losses[i] != b.net.Losses[i] {
			t.Fatalf("loss[%d] differs: %v vs %v", i, a.net.Losses[i], b.net.Losses[i])
		}
	}
	if !bytes.Equal(saved(t, a), saved(t, b)) {
		t.Fatal("model bytes differ (weights not bit-identical)")
	}
}

// TestPretrainResumableMatchesUninterrupted interrupts a pretraining
// run after 8 of 12 epochs (by truncating the budget — on disk the
// state is exactly what a crash right after the epoch-8 checkpoint
// leaves), then resumes from the checkpoint in a "new process" (fresh
// manager, fresh FCNN) and checks the final model is bit-identical to
// an uninterrupted 12-epoch run.
func TestPretrainResumableMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	opts := resumableOptions()
	sampler := &sampling.Importance{Seed: 9}

	full, err := Pretrain(truth, "pressure", sampler, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Phase 1: "crash" after the epoch-8 checkpoint.
	short := opts
	short.Epochs = 8
	m1 := resumableManager(t, dir)
	if _, err := PretrainResumable(context.Background(), truth, "pressure", sampler, short,
		Checkpointing{Manager: m1, Every: 4}); err != nil {
		t.Fatal(err)
	}
	metas, err := m1.List()
	if err != nil || len(metas) == 0 {
		t.Fatalf("no checkpoints after phase 1 (err=%v)", err)
	}
	if last := metas[len(metas)-1]; last.Epoch != 8 {
		t.Fatalf("latest checkpoint at epoch %d, want 8", last.Epoch)
	}

	// Phase 2: a new process resumes and finishes the full budget.
	m2 := resumableManager(t, dir)
	resumed, err := PretrainResumable(context.Background(), truth, "pressure", sampler, opts,
		Checkpointing{Manager: m2, Every: 4, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	equalWeights(t, resumed, full)
}

// TestPretrainResumableValidatedMatchesUninterrupted cancels a
// validated pretraining run one epoch before it ends, resumes it in a
// "new process" (fresh manager, fresh FCNN) from the final checkpoint,
// and requires the model bytes and loss history of an uninterrupted
// run: the early-stopping state (best loss, patience count, best
// weights) rides in the checkpoint. It does so for a run that trains its
// whole budget and restores its best epoch, and for one that stops
// early, whose last epoch then uses up the patience the checkpoint
// carried.
func TestPretrainResumableValidatedMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	sampler := &sampling.Importance{Seed: 9}
	for _, tc := range []struct {
		name     string
		epochs   int
		patience int
		lr       float64
	}{{"budget", 12, 0, 0}, {"early-stop", 40, 2, 0.02}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := resumableOptions()
			opts.Epochs, opts.Patience, opts.LearningRate = tc.epochs, tc.patience, tc.lr
			opts.ValidationFraction = 0.25
			full, err := Pretrain(truth, "pressure", sampler, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stopped := len(full.Losses()) < opts.Epochs; stopped != (tc.patience > 0) {
				t.Fatalf("uninterrupted run trained %d of %d epochs", len(full.Losses()), opts.Epochs)
			}

			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			last := len(full.Losses()) - 1
			stopBeforeLast := telemetry.ObserverFunc(func(e telemetry.EpochStat) {
				if e.Epoch == last-1 {
					cancel()
				}
			})
			if _, err := PretrainResumable(ctx, truth, "pressure", sampler, opts,
				Checkpointing{Manager: resumableManager(t, dir), Every: 4, Observer: stopBeforeLast}); !errors.Is(err, ErrStopped) {
				t.Fatalf("cancelled run returned %v, want ErrStopped", err)
			}
			resumed, err := PretrainResumable(context.Background(), truth, "pressure", sampler, opts,
				Checkpointing{Manager: resumableManager(t, dir), Every: 4, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			equalWeights(t, resumed, full)
		})
	}
}

// TestPretrainResumableSkipsParentFormatCheckpoint: a checkpoint in the
// previous file format (version 1, a gob body), written by the previous
// build for this very configuration, is skipped as unreadable and the
// run starts fresh.
func TestPretrainResumableSkipsParentFormatCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	opts := resumableOptions()
	opts.Hidden, opts.Epochs = []int{4}, 2
	truth := resumableVolume()
	sampler := &sampling.Importance{Seed: 9}
	const name = "ckpt-0000000002.fvcp"
	old, err := os.ReadFile(filepath.Join("testdata", "ckpt-v1", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	m, err := checkpoint.NewManager(checkpoint.Config{Dir: dir, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	r, err := PretrainResumable(context.Background(), truth, "pressure", sampler, opts,
		Checkpointing{Manager: m, Every: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("checkpoint.fallbacks").Value(); got != 1 {
		t.Fatalf("checkpoint.fallbacks = %d, want 1", got)
	}
	full, err := Pretrain(truth, "pressure", sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	equalWeights(t, r, full)
}

// TestPretrainResumableCancellation: a cancelled context stops the run
// with ErrStopped after writing a final checkpoint, and still returns
// the partial model.
func TestPretrainResumableCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	opts := resumableOptions()
	sampler := &sampling.Importance{Seed: 9}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: training stops at the first boundary
	m := resumableManager(t, t.TempDir())
	partial, err := PretrainResumable(ctx, truth, "pressure", sampler, opts,
		Checkpointing{Manager: m, Every: 4})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("cancelled pretrain returned %v, want ErrStopped", err)
	}
	if partial == nil {
		t.Fatal("interrupted run should still return the partial model")
	}
	metas, err := m.List()
	if err != nil || len(metas) == 0 {
		t.Fatalf("cancellation should leave a final checkpoint (err=%v, n=%d)", err, len(metas))
	}
}

// TestPretrainResumableConfigMismatch: resuming under different options
// is refused, not silently diverged.
func TestPretrainResumableConfigMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	opts := resumableOptions()
	opts.Epochs = 4
	sampler := &sampling.Importance{Seed: 9}
	dir := t.TempDir()

	if _, err := PretrainResumable(context.Background(), truth, "pressure", sampler, opts,
		Checkpointing{Manager: resumableManager(t, dir), Every: 2}); err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Seed = 6
	_, err := PretrainResumable(context.Background(), truth, "pressure", sampler, other,
		Checkpointing{Manager: resumableManager(t, dir), Every: 2, Resume: true})
	if err == nil {
		t.Fatal("resume with a different configuration should be refused")
	}
}

// TestPretrainResumableFreshDirTrainsFromScratch: Resume with no
// checkpoint present is a normal cold start, equal to plain Pretrain.
func TestPretrainResumableFreshDirTrainsFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	opts := resumableOptions()
	opts.Epochs = 5
	sampler := &sampling.Importance{Seed: 9}

	full, err := Pretrain(truth, "pressure", sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := PretrainResumable(context.Background(), truth, "pressure", sampler, opts,
		Checkpointing{Manager: resumableManager(t, t.TempDir()), Every: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	equalWeights(t, r, full)
}

// TestFineTuneResumableMatchesUninterrupted: fine-tuning a pretrained
// model with checkpointing resumes bit-identically too.
func TestFineTuneResumableMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	opts := resumableOptions()
	opts.Epochs = 4
	sampler := &sampling.Importance{Seed: 9}

	base, err := Pretrain(truth, "pressure", sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen := datasets.NewIsabel(3)
	truth2 := datasets.Volume(gen, 16, 16, 8, 6)

	// Uninterrupted fine-tune.
	full, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := full.FineTune(truth2, sampler, FineTuneAll, 6); err != nil {
		t.Fatal(err)
	}

	// Checkpointed fine-tune "crashed" after 2 of 6 epochs (truncated
	// budget — same on-disk state), then resumed against the same
	// directory for the remaining 4.
	dir := t.TempDir()
	interrupted, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	m1 := resumableManager(t, dir)
	if err := interrupted.FineTuneResumable(context.Background(), truth2, sampler, FineTuneAll, 2,
		Checkpointing{Manager: m1, Every: 2}); err != nil {
		t.Fatal(err)
	}
	metas, err := m1.List()
	if err != nil || len(metas) == 0 {
		t.Fatalf("no checkpoints after interrupted fine-tune (err=%v)", err)
	}
	// The fine-tune checkpoint epoch counts from the pretrained count.
	if last := metas[len(metas)-1]; last.Epoch != opts.Epochs+2 {
		t.Fatalf("latest checkpoint at epoch %d, want %d", last.Epoch, opts.Epochs+2)
	}

	resumed, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.FineTuneResumable(context.Background(), truth2, sampler, FineTuneAll, 6,
		Checkpointing{Manager: resumableManager(t, dir), Every: 2, Resume: true}); err != nil {
		t.Fatal(err)
	}
	equalWeights(t, resumed, full)
}

// failingSampler fails every Sample call.
type failingSampler struct{}

func (failingSampler) Name() string { return "failing" }

func (failingSampler) Sample(*grid.Volume, string, float64) (*pointcloud.Cloud, []int, error) {
	return nil, nil, errors.New("sampler failed")
}

// TestFineTuneResumableFailedResumeLeavesModel: a fine-tune that
// resumes a checkpoint and then fails before its first epoch (here, in
// the training-set build) leaves the model as it was, so a later
// fine-tune without Resume trains its whole budget from the pretrained
// weights, like an uninterrupted one.
func TestFineTuneResumableFailedResumeLeavesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	truth := resumableVolume()
	opts := resumableOptions()
	opts.Epochs = 4
	sampler := &sampling.Importance{Seed: 9}
	base, err := Pretrain(truth, "pressure", sampler, opts)
	if err != nil {
		t.Fatal(err)
	}
	truth2 := datasets.Volume(datasets.NewIsabel(3), 16, 16, 8, 6)
	full, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := full.FineTune(truth2, sampler, FineTuneAll, 6); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := interrupted.FineTuneResumable(context.Background(), truth2, sampler, FineTuneAll, 2,
		Checkpointing{Manager: resumableManager(t, dir), Every: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FineTuneResumable(context.Background(), truth2, failingSampler{}, FineTuneAll, 6,
		Checkpointing{Manager: resumableManager(t, dir), Every: 2, Resume: true}); err == nil {
		t.Fatal("fine-tune with a failing sampler succeeded")
	}
	equalWeights(t, r, base)
	if err := r.FineTuneResumable(context.Background(), truth2, sampler, FineTuneAll, 6,
		Checkpointing{Manager: resumableManager(t, t.TempDir()), Every: 2}); err != nil {
		t.Fatal(err)
	}
	equalWeights(t, r, full)
}

// A span whose label path extends another span's path in the same
// trace must hang under that span: pretrain/sample under pretrain, not
// under its sibling pretrain/feature-build.
func TestPretrainTraceParentsFollowPaths(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)
	ctx, root := reg.StartTrace(context.Background(), "test", "")
	if _, err := PretrainResumable(ctx, resumableVolume(), "pressure", &sampling.Importance{Seed: 9},
		resumableOptions(), Checkpointing{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	td := reg.Traces()[0]
	byName := map[string]telemetry.SpanRecord{}
	for _, sp := range td.Spans {
		if _, dup := byName[sp.Name]; dup {
			t.Fatalf("span %q recorded twice", sp.Name)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"pretrain", "pretrain/feature-build", "pretrain/sample", "pretrain/train"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("no %s span in the trace; spans: %v", name, byName)
		}
	}
	if byName["pretrain"].ParentID != root.ID() {
		t.Fatal("pretrain must hang under the ctx's span")
	}
	for _, sp := range td.Spans {
		for p := path.Dir(sp.Name); p != "."; p = path.Dir(p) {
			if parent, ok := byName[p]; ok {
				if sp.ParentID != parent.SpanID {
					t.Errorf("%s hangs under span %s, want its path prefix %s", sp.Name, sp.ParentID, p)
				}
				break
			}
		}
	}
}
