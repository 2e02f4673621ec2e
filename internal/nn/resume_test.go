package nn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"fillvoid/internal/telemetry"
)

// resumeCfg pins Workers: the fixed-order gradient reduction makes
// training deterministic only for a fixed worker count, so the
// determinism proofs must not float with the machine.
func resumeCfg() Config {
	return Config{
		In: 2, Out: 1, Hidden: []int{12, 6},
		Seed: 41, BatchSize: 16, Workers: 2,
		LRDecayEvery: 4, LRDecayFactor: 0.5,
	}
}

// resumeData builds a deterministic regression set (no RNG involved).
func resumeData(rows int) (*Matrix, *Matrix) {
	x := NewMatrix(rows, 2)
	y := NewMatrix(rows, 1)
	for i := 0; i < rows; i++ {
		a := float64(i%13)/6.0 - 1.0
		b := float64(i%7)/3.0 - 1.0
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, math.Sin(2*a)+0.5*b*b)
	}
	return x, y
}

// state returns n's MarshalState bytes.
func state(t *testing.T, n *Network) []byte {
	t.Helper()
	b, err := n.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustEqualState asserts two states are byte-identical: weights,
// biases, optimizer moments and step counts, loss history, the
// shuffle-generator position and the run.
func mustEqualState(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("states differ from byte %d (lengths %d and %d)", i, len(got), len(want))
	}
}

// resumeOf decodes a state, failing the test on error.
func resumeOf(t *testing.T, b []byte) *Network {
	t.Helper()
	n, err := Resume(b)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestResumeBitIdenticalTrainEpochs is the core determinism proof:
// train N epochs straight through, versus train k epochs, capture,
// Resume into a fresh network, train the remaining N−k — the final
// states must match byte for byte (weights, Adam moments, losses, RNG).
func TestResumeBitIdenticalTrainEpochs(t *testing.T) {
	const total, k = 10, 4
	x, y := resumeData(120)

	full, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.TrainEpochs(x, y, total); err != nil {
		t.Fatal(err)
	}
	want := state(t, full)

	split, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := split.TrainEpochs(x, y, k); err != nil {
		t.Fatal(err)
	}
	resumed := resumeOf(t, state(t, split))
	if got := len(resumed.Losses); got != k {
		t.Fatalf("resumed network has %d epochs, want %d", got, k)
	}
	if _, err := resumed.TrainEpochs(x, y, total-k); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, state(t, resumed), want)
}

// TestResumeSurvivesSerialization resumes from the bytes a checkpoint
// sink received mid-run, not from a state taken after the call
// returned, and checks the sink saw the run's own epoch count.
func TestResumeSurvivesSerialization(t *testing.T) {
	const total, k = 8, 3
	x, y := resumeData(90)

	full, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.TrainEpochs(x, y, total); err != nil {
		t.Fatal(err)
	}
	want := state(t, full)

	split, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	var captured []byte
	_, err = split.TrainEpochsOpts(x, y, total, RunOptions{
		CheckpointEvery: k,
		Checkpoint: func(b []byte) error {
			if captured == nil {
				captured = b
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumed := resumeOf(t, captured)
	if len(resumed.Losses) != k || resumed.ResumedEpochs() != k {
		t.Fatalf("first checkpoint has %d epochs (%d in the run), want %d", len(resumed.Losses), resumed.ResumedEpochs(), k)
	}
	if _, err := resumed.TrainEpochs(x, y, total-k); err != nil {
		t.Fatal(err)
	}
	mustEqualState(t, state(t, resumed), want)
	if resumed.ResumedEpochs() != 0 {
		t.Fatal("a finished call must end the resumed run")
	}
}

// TestFailedCallEndsResumedRun: a training call on a resumed network
// that fails its input checks still ends the resumed run, so a later
// call starts a run of its own instead of counting the checkpoint's
// epochs against its budget.
func TestFailedCallEndsResumedRun(t *testing.T) {
	x, y := resumeData(60)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	var st []byte
	sink := func(b []byte) error { st = b; return nil }
	if _, err := n.TrainEpochsOpts(x, y, 3, RunOptions{Checkpoint: sink, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	resumed := resumeOf(t, st)
	if got := resumed.ResumedEpochs(); got != 3 {
		t.Fatalf("resumed run has %d epochs, want 3", got)
	}
	if _, err := resumed.TrainEpochs(x, y.SliceRows(0, 10), 2); err == nil {
		t.Fatal("training on mismatched rows succeeded")
	}
	if got := resumed.ResumedEpochs(); got != 0 {
		t.Fatalf("after a failed call the resumed run still has %d epochs", got)
	}
}

// TestResumeBitIdenticalWithValidation proves the same for the
// early-stopping path: the checkpointed early-stopping state (best loss,
// patience counter, best weights) resumes exactly, from every epoch's
// checkpoint, whether the run stops early or not.
func TestResumeBitIdenticalWithValidation(t *testing.T) {
	x, y := resumeData(120)
	vx, vy := resumeData(30)
	// Targets the training set contradicts: validation loss soon rises.
	flipped := NewMatrix(vy.Rows, vy.Cols)
	for i, v := range vy.Data {
		flipped.Data[i] = -v
	}
	for _, tc := range []struct {
		name            string
		total, patience int
		vy              *Matrix
	}{{"budget", 9, 50, vy}, {"early-stop", 40, 2, flipped}} {
		vy := tc.vy
		t.Run(tc.name, func(t *testing.T) {
			full, err := New(resumeCfg())
			if err != nil {
				t.Fatal(err)
			}
			var states [][]byte
			sink := func(b []byte) error { states = append(states, b); return nil }
			var fullVal []float64
			full.SetObserver(telemetry.ObserverFunc(func(e telemetry.EpochStat) { fullVal = append(fullVal, e.ValLoss) }))
			run := RunOptions{Checkpoint: sink, CheckpointEvery: 1, Validation: &Validation{X: vx, Y: vy, Patience: tc.patience}}
			if _, err := full.TrainEpochsOpts(x, y, tc.total, run); err != nil {
				t.Fatal(err)
			}
			if stopped := len(full.Losses) < tc.total; stopped != (tc.name == "early-stop") {
				t.Fatalf("ran %d of %d epochs", len(full.Losses), tc.total)
			}
			want := state(t, full)
			for k, st := range states {
				resumed := resumeOf(t, st)
				var val []float64
				resumed.SetObserver(telemetry.ObserverFunc(func(e telemetry.EpochStat) { val = append(val, e.ValLoss) }))
				if _, err := resumed.TrainEpochsOpts(x, y, tc.total-(k+1), RunOptions{Validation: run.Validation}); err != nil {
					t.Fatal(err)
				}
				mustEqualState(t, state(t, resumed), want)
				// The resumed call's validation losses are the tail of the
				// uninterrupted run's.
				tail := fullVal[k+1:]
				if len(val) != len(tail) {
					t.Fatalf("from epoch %d: %d validation losses, want %d", k+1, len(val), len(tail))
				}
				for i := range tail {
					if val[i] != tail[i] {
						t.Fatalf("from epoch %d: validation loss %d is %v, want %v", k+1, i, val[i], tail[i])
					}
				}
			}
		})
	}
}

// TestCancellationWritesFinalCheckpoint: a cancelled context stops the
// run at the next epoch boundary with ErrStopped, after pushing a final
// checkpoint through the sink.
func TestCancellationWritesFinalCheckpoint(t *testing.T) {
	x, y := resumeData(60)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var checkpoints [][]byte
	sink := func(b []byte) error {
		checkpoints = append(checkpoints, b)
		if len(n.Losses) >= 3 {
			cancel()
		}
		return nil
	}
	_, err = n.TrainEpochsOpts(x, y, 100, RunOptions{
		Ctx: ctx, Checkpoint: sink, CheckpointEvery: 1,
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("cancelled run returned %v, want ErrStopped", err)
	}
	if len(checkpoints) < 2 {
		t.Fatalf("expected periodic + final checkpoints, got %d", len(checkpoints))
	}
	last := checkpoints[len(checkpoints)-1]
	if got := len(resumeOf(t, last).Losses); got != 3 {
		t.Fatalf("final checkpoint at epoch %d, want 3", got)
	}
	// The final (cancellation) checkpoint equals the last periodic one:
	// no partial epoch is ever captured.
	mustEqualState(t, last, checkpoints[len(checkpoints)-2])
}

// TestCheckpointErrorAbortsRun: a failing sink aborts training with the
// sink's error in the chain.
func TestCheckpointErrorAbortsRun(t *testing.T) {
	x, y := resumeData(60)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("disk full")
	_, err = n.TrainEpochsOpts(x, y, 10, RunOptions{
		Checkpoint:      func([]byte) error { return sinkErr },
		CheckpointEvery: 2,
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("run with failing sink returned %v, want wrapped sink error", err)
	}
	if got := len(n.Losses); got != 2 {
		t.Fatalf("run stopped after %d epochs, want 2 (first checkpoint)", got)
	}
}

// validatedState is the state of a network after one validated epoch of
// a run that goes on: it carries early-stopping state with best weights.
func validatedState(t testing.TB) []byte {
	x, y := resumeData(40)
	n, err := New(resumeCfg())
	if err != nil {
		t.Fatal(err)
	}
	var st []byte
	val := &Validation{X: x, Y: y, Patience: 5}
	_, err = n.TrainEpochsOpts(x, y, 2, RunOptions{Validation: val, CheckpointEvery: 1,
		Checkpoint: func(b []byte) error {
			if st == nil {
				st = b
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stateOffsets locates the training section's fields in a state: the
// first layer's first-moment length word, the run's start word and the
// early-stopping flag.
func stateOffsets(t *testing.T, st []byte) (adamLen, start, flag int) {
	t.Helper()
	n := resumeOf(t, st)
	var model bytes.Buffer
	if err := n.Save(&model); err != nil {
		t.Fatal(err)
	}
	off := model.Len()
	for _, l := range n.layers {
		// Per parameter group: step count, then two length-prefixed arrays.
		off += 3*8 + 16*len(l.w) + 3*8 + 16*len(l.b)
	}
	start = off + 8 // after the shuffle word
	return model.Len() + 8, start, start + 8
}

// TestResumeValidation corrupts a valid state's bytes three ways —
// an unknown version, a missing layer and an optimizer array of the
// wrong length — and checks Resume refuses each, along with a run that
// starts after its last epoch and an unknown early-stopping flag.
func TestResumeValidation(t *testing.T) {
	ok := validatedState(t)
	le := binary.LittleEndian
	adamLen, start, flag := stateOffsets(t, ok)
	cfg := resumeCfg()
	for _, tc := range []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"unknown version", func(b []byte) []byte { le.PutUint64(b, 99); return b }},
		{"missing layer", func(b []byte) []byte {
			// The layer count word follows the version, the config's
			// length and the config.
			at := 16 + int(le.Uint64(b[8:]))
			le.PutUint64(b[at:], uint64(len(cfg.Hidden)))
			return b
		}},
		{"optimizer shape", func(b []byte) []byte { le.PutUint64(b[adamLen:], le.Uint64(b[adamLen:])-1); return b }},
		{"run start", func(b []byte) []byte { le.PutUint64(b[start:], 1<<20); return b }},
		{"early-stopping flag", func(b []byte) []byte { le.PutUint64(b[flag:], 3); return b }},
	} {
		if _, err := Resume(tc.edit(bytes.Clone(ok))); err == nil {
			t.Errorf("Resume accepted a state with a bad %s", tc.name)
		}
	}
	if _, err := Resume(ok); err != nil {
		t.Fatalf("the unedited state does not resume: %v", err)
	}
}

// TestResumeRejectsEveryTruncation: every proper prefix of a valid state
// fails to resume, and so does the state with a byte appended.
func TestResumeRejectsEveryTruncation(t *testing.T) {
	ok := validatedState(t)
	for cut := 0; cut < len(ok); cut++ {
		if _, err := Resume(ok[:cut]); err == nil {
			t.Fatalf("Resume accepted the state cut to %d of %d bytes", cut, len(ok))
		}
	}
	if _, err := Resume(append(bytes.Clone(ok), 0)); err == nil {
		t.Fatal("Resume accepted a trailing byte")
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResumeHostileLengthAllocatesLittle: a state whose model part is
// whole but whose training section is missing declares two Adam arrays
// per parameter that its bytes do not hold, so it must fail before the
// network is allocated; and a state that declares best weights it does
// not hold must fail before they are allocated.
func TestResumeHostileLengthAllocatesLittle(t *testing.T) {
	n, err := New(Config{In: 23, Out: 4, Hidden: []int{512, 256}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := n.Save(&model); err != nil {
		t.Fatal(err)
	}
	var rerr error
	if got := allocated(func() { _, rerr = Resume(model.Bytes()) }); rerr == nil || got >= uint64(model.Len()) {
		t.Fatalf("a %d-byte model read as a state: err %v, allocated %d bytes, want an error under %d", model.Len(), rerr, got, model.Len())
	}

	st, err := n.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	whole := allocated(func() { _, rerr = Resume(st) })
	if rerr != nil {
		t.Fatal(rerr)
	}
	// Flag 2 (best weights follow), a best loss and a patience count,
	// and then nothing.
	le := binary.LittleEndian
	hostile := le.AppendUint64(bytes.Clone(st[:len(st)-8]), 2)
	hostile = le.AppendUint64(le.AppendUint64(hostile, 0), 0)
	got := allocated(func() { _, rerr = Resume(hostile) })
	if rerr == nil {
		t.Fatal("accepted a state that declares best weights it does not hold")
	}
	if limit := whole + uint64(model.Len())/2; got >= limit {
		t.Fatalf("rejecting missing best weights allocated %d bytes, a whole state %d; want under %d", got, whole, limit)
	}
}

// FuzzResumeState: Resume never panics, and whatever it accepts
// re-encodes to bytes that resume and re-encode to themselves.
func FuzzResumeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Resume(data)
		if err != nil {
			return
		}
		once := state(t, n)
		twice := state(t, resumeOf(t, once))
		if !bytes.Equal(once, twice) {
			t.Fatal("re-encoding a resumed state changed its bytes")
		}
	})
}
