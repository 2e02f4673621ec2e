package core

import (
	"context"
	"errors"
	"path"
	"testing"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
	"fillvoid/internal/trace"
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

func equalWeights(t *testing.T, a, b *FCNN) {
	t.Helper()
	sa, sb := a.net.CaptureTrainState(), b.net.CaptureTrainState()
	if len(sa.Losses) != len(sb.Losses) {
		t.Fatalf("loss histories differ in length: %d vs %d", len(sa.Losses), len(sb.Losses))
	}
	for i := range sa.Losses {
		if sa.Losses[i] != sb.Losses[i] {
			t.Fatalf("loss[%d] differs: %v vs %v", i, sa.Losses[i], sb.Losses[i])
		}
	}
	for i := range sa.Weights {
		for j := range sa.Weights[i] {
			if sa.Weights[i][j] != sb.Weights[i][j] {
				t.Fatalf("weights[%d][%d] differ: %v vs %v (not bit-identical)", i, j, sa.Weights[i][j], sb.Weights[i][j])
			}
		}
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

// A span whose label path extends another span's path in the same
// trace must hang under that span: pretrain/sample under pretrain, not
// under its sibling pretrain/feature-build.
func TestPretrainTraceParentsFollowPaths(t *testing.T) {
	prev := telemetry.SetDefault(telemetry.NewRegistry())
	defer telemetry.SetDefault(prev)
	tr := trace.New(trace.Config{})
	ctx, root := tr.Start(context.Background(), "test")
	if _, err := PretrainResumable(ctx, resumableVolume(), "pressure", &sampling.Importance{Seed: 9},
		resumableOptions(), Checkpointing{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	td := tr.Traces()[0]
	byName := map[string]trace.SpanRecord{}
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
