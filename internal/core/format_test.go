package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/sampling"
)

// Tests of the model format: the bytes Save writes are the bytes model
// ids hash, so they must not drift, must round-trip exactly, and Load
// must refuse anything else without trusting its declared sizes.

func saved(t testing.TB, r *FCNN) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveBytesPinned pins the FNV-1a hash of a seeded untrained
// model's bytes. The value was recorded from the canonical form model
// ids hashed before Save wrote it, so existing model ids stay valid.
func TestSaveBytesPinned(t *testing.T) {
	h := fnv.New64a()
	h.Write(saved(t, untrainedFCNNHidden(t, 2, 0, []int{16, 8})))
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "cdb4000af05d1623"; got != want {
		t.Fatalf("model bytes hash to %s, want %s", got, want)
	}
}

// TestSaveLoadSaveIdentical: loading a model and saving it again gives
// the same bytes, for a pretrained model, a Case 1 fine-tune and a
// Case 2 fine-tune saved with its freeze flags set.
func TestSaveLoadSaveIdentical(t *testing.T) {
	truth := datasets.Volume(datasets.NewIsabel(7), 16, 16, 8, 10)
	later := datasets.Volume(datasets.NewIsabel(7), 16, 16, 8, 30)
	opts := Options{Hidden: []int{8, 6, 4}, Epochs: 2, TrainFractions: []float64{0.05}, MaxTrainRows: 300, Seed: 1}
	pre, err := Pretrain(truth, "pressure", &sampling.Importance{Seed: 3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	fineTuned := func(mode FineTuneMode) *FCNN {
		m, err := pre.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FineTune(later, &sampling.Importance{Seed: 5}, mode, 2); err != nil {
			t.Fatal(err)
		}
		return m
	}
	case2 := fineTuned(FineTuneLastTwo)
	case2.Network().FreezeAllButLast(2)
	for name, m := range map[string]*FCNN{"pretrained": pre, "case 1": fineTuned(FineTuneAll), "case 2": case2} {
		b := saved(t, m)
		loaded, err := Load(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := saved(t, loaded); !bytes.Equal(again, b) {
			t.Fatalf("%s: %d bytes saved after a load, %d before, and they differ", name, len(again), len(b))
		}
		if len(loaded.Losses()) == 0 {
			t.Fatalf("%s: no loss history", name)
		}
	}
	if got := case2.Network().TrainableParamCount(); got == case2.Network().ParamCount() {
		t.Fatal("case 2 fixture has no frozen layer")
	}
}

// formatFixture is a small model with a loss history and a frozen
// layer, and the offsets of the fields the rejection tests corrupt.
type formatFixture struct {
	b                    []byte
	nnAt, layersAt, wLen int // nn version, layer count, first weight length
}

func newFormatFixture(t testing.TB) formatFixture {
	t.Helper()
	r := untrainedFCNNHidden(t, 2, 0, []int{4})
	r.net.Losses = []float64{0.5, 0.25}
	r.net.FreezeAllButLast(1)
	b := saved(t, r)
	le := binary.LittleEndian
	nnAt := 8 + int(le.Uint64(b))
	layersAt := nnAt + 16 + int(le.Uint64(b[nnAt+8:]))
	return formatFixture{b: b, nnAt: nnAt, layersAt: layersAt, wLen: layersAt + 8}
}

// with returns a copy of the fixture's bytes with the uint64 at off
// replaced by v.
func (f formatFixture) with(off int, v uint64) []byte {
	b := bytes.Clone(f.b)
	binary.LittleEndian.PutUint64(b[off:], v)
	return b
}

func TestLoadRejectsMalformed(t *testing.T) {
	f := newFormatFixture(t)
	if _, err := Load(bytes.NewReader(f.b)); err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	for cut := range len(f.b) {
		if _, err := Load(bytes.NewReader(f.b[:cut])); err == nil {
			t.Fatalf("accepted the model truncated to %d of %d bytes", cut, len(f.b))
		}
	}
	le := binary.LittleEndian
	cases := map[string][]byte{
		"trailing byte":           append(bytes.Clone(f.b), 0),
		"trailing word":           append(bytes.Clone(f.b), make([]byte, 8)...),
		"core version":            bytes.Replace(f.b, []byte(`"Version":1`), []byte(`"Version":2`), 1),
		"nn version":              f.with(f.nnAt, 2),
		"one layer too many":      f.with(f.layersAt, le.Uint64(f.b[f.layersAt:])+1),
		"one layer too few":       f.with(f.layersAt, le.Uint64(f.b[f.layersAt:])-1),
		"short weight array":      f.with(f.wLen, le.Uint64(f.b[f.wLen:])-1),
		"long weight array":       f.with(f.wLen, le.Uint64(f.b[f.wLen:])+1),
		"huge weight array":       f.with(f.wLen, 1<<62),
		"header longer than file": f.with(0, uint64(len(f.b))),
	}
	for name, b := range cases {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadHostileHeaderAllocatesLittle: a header under 1 KB declaring a
// 2^20-wide hidden layer must be refused before the network is
// allocated (the 23×2^20 weights alone would take 184 MiB).
func TestLoadHostileHeaderAllocatesLittle(t *testing.T) {
	f := newFormatFixture(t)
	le := binary.LittleEndian
	b := le.AppendUint64(bytes.Clone(f.b[:f.nnAt]), 1)
	cfg := []byte(`{"In":23,"Out":4,"Hidden":[1048576]}`)
	b = append(le.AppendUint64(b, uint64(len(cfg))), cfg...)
	b = le.AppendUint64(le.AppendUint64(b, 2), 23<<20)
	if len(b) >= 1<<10 {
		t.Fatalf("hostile model is %d bytes, want under 1 KB", len(b))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a header declaring more weights than the file holds")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting a %d-byte model allocated %d bytes, want < 1 MiB", len(b), n)
	}
}

// FuzzLoadModel: Load never panics, and whatever it accepts saves to
// bytes that load and save back to themselves.
func FuzzLoadModel(f *testing.F) {
	b := newFormatFixture(f).b
	for _, cut := range []int{len(b), len(b) - 1, len(b) - 8, len(b) / 2, 8} {
		f.Add(b[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := saved(t, m)
		m2, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("saved bytes do not load: %v", err)
		}
		if twice := saved(t, m2); !bytes.Equal(twice, once) {
			t.Fatal("save after load changed the bytes")
		}
	})
}
