package nn

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"fillvoid/internal/mathutil"
)

func testNetwork(t testing.TB) *Network {
	t.Helper()
	n, err := New(Config{In: 23, Out: 4, Hidden: []int{64, 32, 16}, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomInput(rows, cols int, seed int64) *Matrix {
	rng := mathutil.NewRNG(seed)
	x := NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// TestPredictIntoBitIdentical pins the fused-path contract end to end:
// PredictInto, and Predict on top of it, reproduce the bits of the
// scalar oracle chained through every layer, across batch sizes that
// exercise every row-block remainder and Predict's tiling, on every
// kernel the host has.
func TestPredictIntoBitIdentical(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		n := testNetwork(t)
		buf := n.NewInferenceBuffers(1100)
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 64, 257, 1100} {
			x := randomInput(rows, 23, int64(rows))
			want := scalarPredict(n, x)
			out := NewMatrix(rows, 4)
			if err := n.PredictInto(x, out, buf); err != nil {
				t.Fatal(err)
			}
			pred, err := n.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Data {
				if math.Float64bits(out.Data[i]) != math.Float64bits(w) || math.Float64bits(pred.Data[i]) != math.Float64bits(w) {
					t.Fatalf("rows=%d element %d: PredictInto %x, Predict %x, scalar %x", rows, i, out.Data[i], pred.Data[i], w)
				}
			}
		}
	})
}

// checkPredictMatchesScalar fails t unless PredictInto on buf gives the
// scalar oracle's bits for x.
func checkPredictMatchesScalar(t *testing.T, n *Network, x *Matrix, buf *InferenceBuffers, when string) {
	t.Helper()
	want := scalarPredict(n, x)
	out := NewMatrix(x.Rows, n.cfg.Out)
	if err := n.PredictInto(x, out, buf); err != nil {
		t.Fatal(err)
	}
	if e := sameBits(out.Data, want.Data); e >= 0 {
		t.Fatalf("%s: element %d = %v, scalar %v", when, e, out.Data[e], want.Data[e])
	}
}

// TestPackedWeightsNeverStale pins the packed copy of the weights that
// PredictInto and training read: on one network and one buffer set,
// PredictInto must equal the scalar oracle, which reads the weights
// themselves, after every kind of weight change, and so must a Clone
// and a Resume of it, on every kernel the host has.
// TestConcurrentPredictIntoAfterLoad covers Load.
func TestPackedWeightsNeverStale(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		// The targets are the first four inputs, which training learns.
		x, y := randomInput(300, 23, 1), NewMatrix(300, 4)
		for r := 0; r < x.Rows; r++ {
			copy(y.Row(r), x.Row(r))
		}
		n := testNetwork(t)
		buf := n.NewInferenceBuffers(x.Rows)
		checkPredictMatchesScalar(t, n, x, buf, "new network")

		if _, err := n.TrainEpochs(x.SliceRows(0, 50), y.SliceRows(0, 50), 1); err != nil {
			t.Fatal(err)
		}
		checkPredictMatchesScalar(t, n, x, buf, "after a training step")

		// Validating against negated targets makes the validation loss
		// rise as training fits, so the run restores an earlier epoch.
		vy := y.Clone()
		for i := range vy.Data {
			vy.Data[i] = -vy.Data[i]
		}
		_, vl, err := trainValidated(n, x, y, x, vy, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if best := slices.Index(vl, slices.Min(vl)); best == len(vl)-1 {
			t.Fatalf("validation losses %v: the last epoch was best, so no weights were restored", vl)
		}
		checkPredictMatchesScalar(t, n, x, buf, "after the best-weight restore")

		// Case 2: only the last two layers train.
		n.FreezeAllButLast(2)
		if _, err := n.TrainEpochs(x, y, 2); err != nil {
			t.Fatal(err)
		}
		checkPredictMatchesScalar(t, n, x, buf, "after a Case 2 fine-tune")

		// Copies start from the seed's initial weights and overwrite them.
		c, err := n.Clone()
		if err != nil {
			t.Fatal(err)
		}
		checkPredictMatchesScalar(t, c, x, buf, "Clone")
		st, err := n.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Resume(st)
		if err != nil {
			t.Fatal(err)
		}
		checkPredictMatchesScalar(t, r, x, buf, "Resume")
	})
}

// TestConcurrentPredictIntoAfterLoad runs PredictInto from several
// goroutines on a network fresh from Load, each with its own buffers,
// as the fused reconstruction workers do; under -race it pins that
// reading the packed weights needs no lock. The saved network is
// trained first, so Load must repack: its weights differ from the ones
// the same seed initializes.
func TestConcurrentPredictIntoAfterLoad(t *testing.T) {
	src := testNetwork(t)
	if _, err := src.TrainEpochs(randomInput(64, 23, 1), randomInput(64, 4, 2), 1); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := src.Save(&b); err != nil {
		t.Fatal(err)
	}
	n, err := Load(&b)
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(77, 23, 3)
	want := scalarPredict(n, x)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, out := n.NewInferenceBuffers(x.Rows), NewMatrix(x.Rows, 4)
			for i := 0; i < 10; i++ {
				if err := n.PredictInto(x, out, buf); err != nil {
					t.Error(err)
					return
				}
				if e := sameBits(out.Data, want.Data); e >= 0 {
					t.Errorf("element %d = %v, scalar %v", e, out.Data[e], want.Data[e])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPredictIntoShapeErrors(t *testing.T) {
	n := testNetwork(t)
	buf := n.NewInferenceBuffers(8)
	if err := n.PredictInto(NewMatrix(4, 22), NewMatrix(4, 4), buf); err == nil {
		t.Error("wrong input width accepted")
	}
	if err := n.PredictInto(NewMatrix(4, 23), NewMatrix(4, 3), buf); err == nil {
		t.Error("wrong output width accepted")
	}
	if err := n.PredictInto(NewMatrix(9, 23), NewMatrix(9, 4), buf); err == nil {
		t.Error("overflow of buffer capacity accepted")
	}
	if err := n.PredictInto(NewMatrix(4, 23), NewMatrix(4, 4), nil); err == nil {
		t.Error("nil buffers accepted")
	}
	// Buffers built for narrower layers of the same depth must be
	// refused, not overrun.
	narrow, err := New(Config{In: 23, Out: 4, Hidden: []int{8, 4, 2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	small := narrow.NewInferenceBuffers(8)
	if err := n.PredictInto(NewMatrix(8, 23), NewMatrix(8, 4), small); err == nil {
		t.Error("buffers for narrower layers accepted")
	}
	q, err := n.Quantize(QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.PredictInto(NewMatrix(8, 23), NewMatrix(8, 4), small); err == nil {
		t.Error("quantized: buffers for narrower layers accepted")
	}
}

// TestPredictIntoZeroAllocs pins the steady-state allocation contract of
// the fused path for both precision modes.
func TestPredictIntoZeroAllocs(t *testing.T) {
	n := testNetwork(t)
	x := randomInput(128, 23, 9)
	out := NewMatrix(128, 4)
	buf := n.NewInferenceBuffers(128)
	if a := testing.AllocsPerRun(50, func() {
		if err := n.PredictInto(x, out, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("PredictInto: %v allocs/op, want 0", a)
	}
	q, err := n.Quantize(QuantF16)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if err := q.PredictInto(x, out, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Quantized.PredictInto: %v allocs/op, want 0", a)
	}
}

// TestQuantizedClose bounds the quantized forward pass against the f64
// reference. The bound is loose (activations compound per layer) but
// catches any structural mistake in the dequantizing kernels.
func TestQuantizedClose(t *testing.T) {
	n := testNetwork(t)
	x := randomInput(200, 23, 11)
	want, err := n.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range want.Data {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for mode, tol := range map[QuantMode]float64{QuantF16: 1e-2, QuantInt8: 0.2} {
		q, err := n.Quantize(mode)
		if err != nil {
			t.Fatal(err)
		}
		out := NewMatrix(200, 4)
		if err := q.PredictInto(x, out, q.NewInferenceBuffers(200)); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if d := math.Abs(out.Data[i] - want.Data[i]); d > tol*scale {
				t.Fatalf("%v element %d: |%g - %g| = %g beyond %g", mode, i, out.Data[i], want.Data[i], d, tol*scale)
			}
		}
	}
}

// TestQuantizedBitIdenticalToExpanded pins the quantized path exactly:
// Quantized.PredictInto must reproduce, by Float64bits, the scalar
// oracle chained over a network holding the dequantized weights, at
// batch sizes below, at and past one row block, on every kernel the
// host has. The reference dequantizes each weight on its own, so a
// weight that expand puts in the wrong packed slot fails the test.
func TestQuantizedBitIdenticalToExpanded(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		n := testNetwork(t)
		for _, mode := range []QuantMode{QuantF16, QuantInt8} {
			q, err := n.Quantize(mode)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := n.Clone()
			if err != nil {
				t.Fatal(err)
			}
			for li, ql := range q.layers {
				w := ref.layers[li].w
				for e := range w {
					if mode == QuantF16 {
						w[e] = mathutil.F16Decode(ql.f16[e])
					} else {
						w[e] = ql.scale * float64(ql.q8[e])
					}
				}
			}
			buf := q.NewInferenceBuffers(257)
			for _, rows := range []int{1, 5, 8, 13, 257} {
				x := randomInput(rows, 23, int64(rows))
				want := scalarPredict(ref, x)
				out := NewMatrix(rows, 4)
				if err := q.PredictInto(x, out, buf); err != nil {
					t.Fatal(err)
				}
				for i, w := range want.Data {
					if math.Float64bits(out.Data[i]) != math.Float64bits(w) {
						t.Fatalf("%v rows=%d element %d: PredictInto %x, scalar %x", mode, rows, i, out.Data[i], w)
					}
				}
			}
		}
	})
}

func TestQuantModeParse(t *testing.T) {
	for s, want := range map[string]QuantMode{"": QuantNone, "none": QuantNone, "f64": QuantNone, "f16": QuantF16, "int8": QuantInt8} {
		got, err := ParseQuantMode(s)
		if err != nil || got != want {
			t.Errorf("ParseQuantMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseQuantMode("f32"); err == nil {
		t.Error("ParseQuantMode accepted f32")
	}
	if QuantF16.String() != "f16" || QuantInt8.String() != "int8" || QuantNone.String() != "none" {
		t.Error("QuantMode.String mismatch")
	}
}

func TestQuantizeRejectsNone(t *testing.T) {
	n := testNetwork(t)
	if _, err := n.Quantize(QuantNone); err == nil {
		t.Error("Quantize(QuantNone) succeeded")
	}
}

// BenchmarkPredictInto streams 512-row tiles, the fused reconstruction
// tile, through the test network and through the network the repo
// benchmark pretrains (23→128,64,32,16,8→4), on every kernel the host
// has, reporting ns/row and GFLOP/s (two FLOPs per multiply-add).
func BenchmarkPredictInto(b *testing.B) {
	for _, bc := range []struct {
		name   string
		hidden []int
	}{
		{"test-net", []int{64, 32, 16}},
		{"perfbench-net", []int{128, 64, 32, 16, 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eachKernel(b, func(b *testing.B) {
				n, err := New(Config{In: 23, Out: 4, Hidden: bc.hidden, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				const rows = 512
				x := randomInput(rows, 23, 3)
				out := NewMatrix(rows, 4)
				buf := n.NewInferenceBuffers(rows)
				macs := 0
				for _, l := range n.layers {
					macs += l.in * l.out
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := n.PredictInto(x, out, buf); err != nil {
						b.Fatal(err)
					}
				}
				nsRow := float64(b.Elapsed().Nanoseconds()) / float64(b.N*rows)
				b.ReportMetric(nsRow, "ns/row")
				b.ReportMetric(2*float64(macs)/nsRow, "GFLOP/s")
			})
		})
	}
}

func BenchmarkPredictIntoF16(b *testing.B) {
	n := testNetwork(b)
	q, err := n.Quantize(QuantF16)
	if err != nil {
		b.Fatal(err)
	}
	x := randomInput(512, 23, 3)
	out := NewMatrix(512, 4)
	buf := q.NewInferenceBuffers(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.PredictInto(x, out, buf); err != nil {
			b.Fatal(err)
		}
	}
}
