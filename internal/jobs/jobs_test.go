package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/checkpoint/faultfs"
	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// testCloudID is a syntactically valid cloud id; the jobs layer treats
// it as an opaque key (the server resolves it against the cloud store).
const testCloudID = "00c0ffee00c0ffee"

// testVolume is a small Isabel-analog frame: large enough that
// training has structure to learn, small enough that a full run takes
// well under a second.
func testVolume() *grid.Volume {
	return datasets.Volume(datasets.NewIsabel(3), 16, 16, 8, 4)
}

// testSpec is a complete fast pretraining spec over testVolume.
// Workers is pinned because bit-identical resume requires the same
// gradient-reduction order.
func testSpec() Spec {
	opts := core.DefaultOptions()
	opts.Hidden = []int{24, 12}
	opts.Epochs = 12
	opts.TrainFractions = []float64{0.03}
	opts.MaxTrainRows = 1500
	opts.BatchSize = 64
	opts.Seed = 5
	opts.Workers = 2
	return Spec{
		CloudID:         testCloudID,
		Field:           "pressure",
		Grid:            recon.SpecOf(testVolume()),
		Sampler:         "importance",
		SamplerSeed:     3,
		Opts:            opts,
		CheckpointEvery: 4,
	}
}

func testManager(t *testing.T, cfg Config) (*Manager, *ModelStore) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Models == nil {
		ms, err := NewModelStore("", 0, telemetry.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Models = ms
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m, cfg.Models
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return Status{}
}

func TestSubmitTrainsToDone(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	m, models := testManager(t, Config{})
	st, created, err := m.Submit(testSpec(), testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first submission must create the job")
	}
	if st.EpochsTotal != 12 {
		t.Fatalf("EpochsTotal = %d, want 12", st.EpochsTotal)
	}

	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (error %q), want done", final.State, final.Error)
	}
	if !ValidID(final.ModelID) {
		t.Fatalf("model id %q is not a valid content address", final.ModelID)
	}
	if final.Epoch != 12 {
		t.Fatalf("observer epoch = %d, want 12", final.Epoch)
	}
	if final.Loss <= 0 {
		t.Fatalf("observer loss = %v, want > 0", final.Loss)
	}
	model, err := models.Get(final.ModelID)
	if err != nil {
		t.Fatalf("finished model not in store: %v", err)
	}
	if model.FieldName() != "pressure" {
		t.Fatalf("model field %q, want pressure", model.FieldName())
	}

	// Idempotent re-POST of a finished spec: same job, no new work.
	again, created, err := m.Submit(testSpec(), testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if created || again.ID != st.ID || again.State != StateDone {
		t.Fatalf("resubmit: created=%v id=%s state=%s, want existing done job %s",
			created, again.ID, again.State, st.ID)
	}
}

func TestSubmitValidatesInputs(t *testing.T) {
	m, _ := testManager(t, Config{Workers: -1})
	spec := testSpec()

	if _, _, err := m.Submit(spec, nil, nil); err == nil {
		t.Error("nil volume accepted")
	}
	wrong := recon.GridSpec{NX: 4, NY: 4, NZ: 4, Spacing: mathutil.Vec3{X: 1, Y: 1, Z: 1}}.NewVolume()
	if _, _, err := m.Submit(spec, wrong, nil); err == nil {
		t.Error("mismatched volume dims accepted")
	}
	if _, _, err := m.Submit(spec, testVolume(), []byte("base")); err == nil {
		t.Error("base bytes without BaseModel accepted")
	}
	bad := spec
	bad.CloudID = "nope"
	if _, _, err := m.Submit(bad, testVolume(), nil); err == nil {
		t.Error("invalid cloud id accepted")
	}
}

func TestQueueFullRejectsSubmit(t *testing.T) {
	// Workers: -1 runs no workers, so submissions stay queued.
	m, _ := testManager(t, Config{Workers: -1, Queue: 2})
	for i := 0; i < 2; i++ {
		spec := testSpec()
		spec.SamplerSeed = int64(100 + i) // distinct specs, distinct jobs
		if _, _, err := m.Submit(spec, testVolume(), nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	spec := testSpec()
	spec.SamplerSeed = 999
	if _, _, err := m.Submit(spec, testVolume(), nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestCancelQueuedThenFinished(t *testing.T) {
	m, _ := testManager(t, Config{Workers: -1})
	st, _, err := m.Submit(testSpec(), testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("cancelling a cancelled job: err = %v, want ErrJobFinished", err)
	}
	if _, err := m.Cancel("ffffffffffffffff"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancelling unknown job: err = %v, want ErrNotFound", err)
	}
	if q, _ := m.Depth(); q != 0 {
		t.Fatalf("queue depth %d after cancel, want 0", q)
	}
}

// TestFaultInjectionResumeBitIdentical is the crash-recovery
// acceptance test: checkpoint storage fails mid-run (the job dies
// after its first intact checkpoint), a "restarted process" (a fresh
// Manager over the same directory) re-queues the job, and the resumed
// run must finish with the model id — i.e. the exact weight bytes — an
// uninterrupted run produces.
func TestFaultInjectionResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	// Reference: the same spec trained with no faults.
	clean, _ := testManager(t, Config{})
	ref, _, err := clean.Submit(testSpec(), testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, clean, ref.ID)
	if refSt.State != StateDone {
		t.Fatalf("reference run: state %s (error %q)", refSt.State, refSt.Error)
	}

	// Faulted: the second checkpoint write (epoch 8 of 12, Every=4)
	// fails, killing the job with the epoch-4 checkpoint intact.
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	ffs.Arm(faultfs.OpRename, 2, faultfs.Fail)
	faulted, _ := testManager(t, Config{Dir: dir, FS: ffs})
	st, _, err := faulted.Submit(testSpec(), testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := waitTerminal(t, faulted, st.ID)
	if interrupted.State != StateInterrupted {
		t.Fatalf("state %s (error %q), want interrupted", interrupted.State, interrupted.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := faulted.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager over the same directory re-queues the
	// interrupted job and resumes it from the intact checkpoint.
	models, err := NewModelStore("", 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	restarted, _ := testManager(t, Config{Dir: dir, Models: models})
	resumed := waitTerminal(t, restarted, st.ID)
	if resumed.State != StateDone {
		t.Fatalf("resumed run: state %s (error %q), want done", resumed.State, resumed.Error)
	}
	if resumed.Resumes == 0 {
		t.Fatal("resumed run did not count its resume")
	}
	// Content-addressed ids make bit-identity a string comparison: the
	// ids match iff the serialized weights match byte for byte.
	if resumed.ModelID != refSt.ModelID {
		t.Fatalf("resumed model %s differs from uninterrupted model %s (not bit-identical)",
			resumed.ModelID, refSt.ModelID)
	}
}

// TestCloseInterruptsAndRestartResumes shuts the manager down mid-run
// (the SIGTERM path) and checks the restarted manager finishes the job
// with bit-identical weights.
func TestCloseInterruptsAndRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	clean, _ := testManager(t, Config{})
	longSpec := testSpec()
	longSpec.Opts.Epochs = 40
	longSpec.CheckpointEvery = 2
	ref, _, err := clean.Submit(longSpec, testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refSt := waitTerminal(t, clean, ref.ID)
	if refSt.State != StateDone {
		t.Fatalf("reference run: state %s (error %q)", refSt.State, refSt.Error)
	}

	dir := t.TempDir()
	m, _ := testManager(t, Config{Dir: dir})
	st, _, err := m.Submit(longSpec, testVolume(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until training is demonstrably under way, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := m.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Epoch >= 4 || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started training")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The shutdown may have lost the race with a fast run; both
	// outcomes are legitimate, but only an interrupt exercises resume.
	if after.State != StateDone && after.State != StateInterrupted {
		t.Fatalf("state after Close: %s (error %q)", after.State, after.Error)
	}

	restarted, _ := testManager(t, Config{Dir: dir})
	resumed := waitTerminal(t, restarted, st.ID)
	if resumed.State != StateDone {
		t.Fatalf("resumed run: state %s (error %q)", resumed.State, resumed.Error)
	}
	if resumed.ModelID != refSt.ModelID {
		t.Fatalf("resumed model %s differs from uninterrupted model %s (not bit-identical)",
			resumed.ModelID, refSt.ModelID)
	}
}

func TestVolumeFromCloudRoundTrip(t *testing.T) {
	truth := testVolume()
	spec := recon.SpecOf(truth)

	// A full-coverage cloud in shuffled order must rebuild the volume
	// value-exactly.
	c := pointcloud.New("pressure", spec.Len())
	perm := rand.New(rand.NewSource(9)).Perm(spec.Len())
	for _, idx := range perm {
		i := idx % spec.NX
		j := (idx / spec.NX) % spec.NY
		k := idx / (spec.NX * spec.NY)
		c.Add(spec.Point(i, j, k), truth.Data[idx])
	}
	v, err := VolumeFromCloud(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if v.Data[i] != truth.Data[i] {
			t.Fatalf("value %d: %v != %v (must pass through bit-exactly)", i, v.Data[i], truth.Data[i])
		}
	}

	short := pointcloud.New("pressure", 1)
	short.Add(spec.Point(0, 0, 0), 1)
	if _, err := VolumeFromCloud(short, spec); err == nil {
		t.Error("partial cloud accepted (training needs the full field)")
	}

	dup := pointcloud.New("pressure", spec.Len())
	for n := 0; n < spec.Len(); n++ {
		dup.Add(spec.Point(0, 0, 0), 1) // every point on one node
	}
	if _, err := VolumeFromCloud(dup, spec); err == nil {
		t.Error("duplicated node accepted")
	}

	off := pointcloud.New("pressure", spec.Len())
	for n := 0; n < spec.Len(); n++ {
		off.Add(mathutil.Vec3{X: 0.5, Y: 0.5, Z: float64(n)}, 1)
	}
	if _, err := VolumeFromCloud(off, spec); err == nil {
		t.Error("off-grid points accepted")
	}
}

// TestInputRoundTripAndRefusals: a job's input.bin gives back the
// truth volume bit for bit and the base model's bytes, and readInput
// refuses a value count other than NX·NY·NZ, a spacing that is not
// positive, and every cut into the volume.
func TestInputRoundTripAndRefusals(t *testing.T) {
	m := &Manager{cfg: Config{Dir: t.TempDir()}}
	truth := testVolume()
	truth.Data[3] = math.NaN()
	base := []byte("base model bytes")
	if err := m.writeInput("a", truth, base); err != nil {
		t.Fatal(err)
	}
	got, gotBase, err := m.readInput("a")
	if err != nil {
		t.Fatal(err)
	}
	if got.NX != truth.NX || got.NY != truth.NY || got.NZ != truth.NZ || got.Origin != truth.Origin || got.Spacing != truth.Spacing {
		t.Fatalf("geometry %+v, want %+v", got, truth)
	}
	for i, v := range truth.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("value %d is %v, want %v", i, got.Data[i], v)
		}
	}
	if !bytes.Equal(gotBase, base) {
		t.Fatalf("base %q, want %q", gotBase, base)
	}

	path := filepath.Join(m.cfg.Dir, "a", "input.bin")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	const spacingX, count = 48, 72 // byte offsets in the header
	edits := map[string]func(b []byte){
		"count":       func(b []byte) { le.PutUint64(b[count:], le.Uint64(b[count:])-1) },
		"zero NX":     func(b []byte) { le.PutUint64(b[0:], 0) },
		"huge NY":     func(b []byte) { le.PutUint64(b[8:], 1<<62) },
		"spacing":     func(b []byte) { le.PutUint64(b[spacingX:], math.Float64bits(0)) },
		"NaN spacing": func(b []byte) { le.PutUint64(b[spacingX:], math.Float64bits(math.NaN())) },
	}
	for name, edit := range edits {
		b := bytes.Clone(good)
		edit(b)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.readInput("a"); err == nil {
			t.Errorf("readInput accepted an input with a bad %s", name)
		}
	}
	for cut := 0; cut < len(good)-len(base); cut += 97 {
		if err := os.WriteFile(path, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.readInput("a"); err == nil {
			t.Fatalf("readInput accepted the input cut to %d bytes", cut)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	mutate := func(f func(*Spec)) Spec {
		s := testSpec()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"bad cloud id", mutate(func(s *Spec) { s.CloudID = "xyz" })},
		{"empty field", mutate(func(s *Spec) { s.Field = "" })},
		{"zero grid", mutate(func(s *Spec) { s.Grid.NX = 0 })},
		{"unknown sampler", mutate(func(s *Spec) { s.Sampler = "psychic" })},
		{"bad base model", mutate(func(s *Spec) { s.BaseModel = "zz" })},
		{"zero epochs", mutate(func(s *Spec) { s.Opts.Epochs = 0 })},
		{"huge epochs", mutate(func(s *Spec) { s.Opts.Epochs = MaxEpochs + 1 })},
		{"hidden too wide", mutate(func(s *Spec) { s.Opts.Hidden = []int{MaxHiddenWidth + 1} })},
		{"negative workers", mutate(func(s *Spec) { s.Opts.Workers = -1 })},
		{"no fractions", mutate(func(s *Spec) { s.Opts.TrainFractions = nil })},
		{"fraction over 1", mutate(func(s *Spec) { s.Opts.TrainFractions = []float64{1.5} })},
		{"zero learning rate", mutate(func(s *Spec) { s.Opts.LearningRate = 0 })},
		{"negative checkpoint every", mutate(func(s *Spec) { s.CheckpointEvery = -1 })},
	}
	if err := testSpec().Validate(0); err != nil {
		t.Fatalf("baseline spec invalid: %v", err)
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(0); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	big := mutate(func(s *Spec) {
		s.Grid = recon.GridSpec{NX: 1 << 20, NY: 1 << 20, NZ: 1 << 20, Spacing: mathutil.Vec3{X: 1, Y: 1, Z: 1}}
	})
	if err := big.Validate(1 << 30); err == nil {
		t.Error("grid over the point bound accepted (overflow in the bound check?)")
	}
}

func TestIDForIsStableAndSpecSensitive(t *testing.T) {
	a, b := testSpec(), testSpec()
	if IDFor(a) != IDFor(b) {
		t.Fatal("equal specs produced different job ids")
	}
	b.Opts.Epochs++
	if IDFor(a) == IDFor(b) {
		t.Fatal("different specs produced equal job ids")
	}
	if !ValidID(IDFor(a)) {
		t.Fatalf("job id %q is not 16-hex", IDFor(a))
	}
}

func TestModelStorePersistsAndVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	ms, err := NewModelStore(dir, 2, tel)
	if err != nil {
		t.Fatal(err)
	}

	model := pretrainDirect(t, testSpec())

	id, err := ms.Put(model)
	if err != nil {
		t.Fatal(err)
	}
	if !ValidID(id) {
		t.Fatalf("model id %q", id)
	}
	raw, err := ms.Bytes(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := idOf(raw); got != id {
		t.Fatalf("stored bytes hash to %s, not their id %s", got, id)
	}
	if _, err := core.Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("stored bytes do not decode: %v", err)
	}
	// Same weights → same id (content addressing), no duplicate entry.
	id2, err := ms.Put(model)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("same model stored under two ids: %s vs %s", id, id2)
	}

	// A fresh store over the same directory serves the model from disk.
	ms2, err := NewModelStore(dir, 2, tel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms2.Get(id); err != nil {
		t.Fatalf("persisted model not readable after restart: %v", err)
	}

	// PutBytes round-trips and refuses garbage and bytes filed under an
	// id they do not hash to.
	if err := ms2.PutBytes(id, raw); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	if err := ms2.PutBytes(idOf([]byte("not a model")), []byte("not a model")); err == nil {
		t.Fatal("PutBytes accepted garbage")
	}
	const other = "0123456789abcdef"
	if err := ms2.PutBytes(other, raw); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("PutBytes under a foreign id: err = %v, want ErrModelNotFound", err)
	}
	if _, err := ms2.Get(other); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("refused bytes were stored: err = %v", err)
	}

	// A tampered file reads as missing: its bytes no longer hash to id.
	path := filepath.Join(dir, id+".fcnn")
	tampered := bytes.Clone(raw)
	tampered[len(tampered)-1] ^= 1
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	ms3, err := NewModelStore(dir, 2, tel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms3.Get(id); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("tampered model file: err = %v, want ErrModelNotFound", err)
	}
	if _, err := ms2.Get("0000000000000000"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrModelNotFound", err)
	}
	if _, err := ms2.Get("../../etc/passwd"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("path-traversal id: err = %v, want ErrModelNotFound", err)
	}
}

// pretrainDirect trains spec's model through the same core entry point
// the job worker uses, with a throwaway checkpoint directory.
func pretrainDirect(t *testing.T, spec Spec) *core.FCNN {
	t.Helper()
	ckMgr, err := checkpoint.NewManager(checkpoint.Config{Dir: t.TempDir(), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := sampling.ByName(spec.Sampler, spec.SamplerSeed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.PretrainResumable(context.Background(), testVolume(), spec.Field, sampler, spec.Opts,
		core.Checkpointing{Manager: ckMgr, Every: spec.CheckpointEvery})
	if err != nil {
		t.Fatal(err)
	}
	return model
}
