package nn

import (
	"fmt"
	"math"
	"testing"

	"fillvoid/internal/mathutil"
)

// maskOf is the column-mask oracle: bit j of byte rb*⌈width/8⌉+g is set
// when column 8g+j of a (rows × width) has a nonzero bit pattern in any
// row of block rb.
func maskOf(a []float64, rows, width int) []byte {
	stride := (width + 7) / 8
	m := make([]byte, maskLen(rows, width))
	for r := 0; r < rows; r++ {
		for c, v := range a[r*width : (r+1)*width] {
			if math.Float64bits(v) != 0 {
				m[r/8*stride+c/8] |= 1 << (c % 8)
			}
		}
	}
	return m
}

// checkMask checks a kernel-written mask of a (rows × width) against
// the contract: no bit that a nonzero column needs is clear, and either
// every whole row block's bits are exact (a kernel that skips) or every
// bit is set (a kernel that reads no mask). Bits past the width are not
// compared; a partial row block may carry extra bits from its padding
// rows.
func checkMask(got []byte, a []float64, rows, width int) error {
	want, stride := maskOf(a, rows, width), (width+7)/8
	exact, ones := true, true
	for rb := 0; rb < (rows+7)/8; rb++ {
		for g := 0; g < stride; g++ {
			valid := byte(1<<min(8, width-8*g) - 1)
			gv, wv := got[rb*stride+g]&valid, want[rb*stride+g]
			if gv&wv != wv {
				return fmt.Errorf("block %d group %d: mask %08b clears a bit of %08b", rb, g, gv, wv)
			}
			if rb < rows/8 && gv != wv {
				exact = false
			}
			if gv != valid {
				ones = false
			}
		}
	}
	if !exact && !ones {
		return fmt.Errorf("mask is neither exact on whole row blocks nor all ones")
	}
	return nil
}

// sparseInput is a rows × in block of normal values in which whole
// row-block columns are special, in a pattern that differs from block
// to block: +0 in all eight rows (about half the columns of a block),
// -0 in all eight rows, and +0 but for one NaN, +Inf or -Inf.
func sparseInput(rows, in int, seed int64) *Matrix {
	x := randomInput(rows, in, seed)
	for r := 0; r < rows; r++ {
		rb := r / 8
		for c := range in {
			var v float64
			switch k := (3*c + 5*rb) % 16; {
			case k < 8:
				v = 0
			case k == 8:
				v = math.Copysign(0, -1)
			case k == 9 && r%8 == 2:
				v = math.NaN()
			case k == 10 && r%8 == 5:
				v = math.Inf(1)
			case k == 11 && r%8 == 7:
				v = math.Inf(-1)
			case k >= 9 && k <= 11:
				v = 0
			default:
				continue
			}
			x.Set(r, c, v)
		}
	}
	return x
}

// TestMaskDenseMatchesScalar pins the column-mask contract of
// denseForward on every kernel the host has: run with the input's exact
// mask and with all ones, a skip-safe layer gives the scalar oracle's
// bits, and the mask it writes never clears a needed bit and is exact or
// all ones. It covers a 23-wide input layer and a 4-wide output layer,
// 1–17 and 512 rows, with and without ReLU, on inputs whose columns are
// +0 in some row blocks and not others, -0 throughout, or +0 but for
// one NaN or ±Inf.
func TestMaskDenseMatchesScalar(t *testing.T) {
	eachKernel(t, testMaskDenseMatchesScalar)
}

func testMaskDenseMatchesScalar(t *testing.T) {
	rowCounts := []int{512}
	for r := 1; r <= 17; r++ {
		rowCounts = append(rowCounts, r)
	}
	for _, shape := range [][2]int{{23, 20}, {23, 64}, {32, 4}, {16, 9}} {
		in, nout := shape[0], shape[1]
		l := newDense(in, nout, false)
		rng := mathutil.NewRNG(int64(100*in + nout))
		for i := range l.w {
			l.w[i] = rng.NormFloat64()
		}
		for i := range l.b {
			l.b[i] = rng.NormFloat64()
		}
		l.repack()
		if !l.skip {
			t.Fatalf("in=%d nout=%d: finite weights and biases are not skip-safe", in, nout)
		}
		var pad padScratch
		pad.fit(512, in, nout)
		for _, rows := range rowCounts {
			x := sparseInput(rows, in, int64(rows))
			xm := maskOf(x.Data, rows, in)
			for _, relu := range []bool{false, true} {
				l.relu = relu
				z, want := NewMatrix(rows, nout), NewMatrix(rows, nout)
				l.forward(x, z, want)
				for _, pass := range []struct {
					name string
					xm   []byte
				}{{"masked", xm}, {"all-ones", nil}} {
					got := make([]float64, (rows+1)*nout)
					for e := range got {
						got[e] = unwritten
					}
					dm := make([]byte, maskLen(rows, nout))
					denseForward(x.Data, rows, in, pass.xm, l.pw, l.pb, nout, relu, got[:rows*nout], dm, &pad)
					if e := sameBits(got, want.Data); e >= 0 {
						if e >= rows*nout {
							t.Fatalf("%s in=%d nout=%d rows=%d: stored past the end", pass.name, in, nout, rows)
						}
						t.Fatalf("%s in=%d nout=%d rows=%d relu=%v: (%d,%d) = %#x, scalar %#x", pass.name,
							in, nout, rows, relu, e/nout, e%nout, math.Float64bits(got[e]), math.Float64bits(want.Data[e]))
					}
					if err := checkMask(dm, want.Data, rows, nout); err != nil {
						t.Fatalf("%s in=%d nout=%d rows=%d relu=%v: %v", pass.name, in, nout, rows, relu, err)
					}
				}
			}
		}
	}
}

// sparseNetwork is the test network with every hidden bias lowered by
// 1.5, so most hidden units are +0 in most rows and many columns are +0
// in a whole row block, as in a trained FCNN.
func sparseNetwork(t testing.TB) *Network {
	n := testNetwork(t)
	for _, l := range n.layers[:len(n.layers)-1] {
		for o := range l.b {
			l.b[o] -= 1.5
		}
		l.repack()
	}
	return n
}

// checkPredictMasks fails t unless every mask PredictInto left in buf
// keeps the contract for the activations beside it.
func checkPredictMasks(t *testing.T, buf *InferenceBuffers, rows int, when string) {
	t.Helper()
	for li, m := range buf.masks {
		w := buf.used[li].width
		if err := checkMask(m, buf.acts[li][:rows*w], rows, w); err != nil {
			t.Fatalf("%s: layer %d: %v", when, li, err)
		}
	}
}

// TestMaskPredictMatchesScalar runs PredictInto and the f16 and int8
// views on a network whose hidden activations are mostly +0, on every
// kernel the host has, against the scalar oracle by Float64bits, and
// checks that some pairs were skipped on a kernel that skips.
func TestMaskPredictMatchesScalar(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		n := sparseNetwork(t)
		views := []struct {
			name string
			p    Predictor
			ref  *Network
		}{{"f64", n, n}}
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
			views = append(views, struct {
				name string
				p    Predictor
				ref  *Network
			}{mode.String(), q, ref})
		}
		for _, v := range views {
			buf := v.p.NewInferenceBuffers(512)
			skipped := 0
			for _, rows := range []int{1, 2, 7, 8, 9, 13, 16, 17, 512} {
				x := randomInput(rows, 23, int64(rows))
				want := scalarPredict(v.ref, x)
				out := NewMatrix(rows, 4)
				if err := v.p.PredictInto(x, out, buf); err != nil {
					t.Fatal(err)
				}
				if e := sameBits(out.Data, want.Data); e >= 0 {
					t.Fatalf("%s rows=%d element %d: %#x, scalar %#x", v.name, rows, e, math.Float64bits(out.Data[e]), math.Float64bits(want.Data[e]))
				}
				checkPredictMasks(t, buf, rows, fmt.Sprintf("%s rows=%d", v.name, rows))
				s, _ := buf.Skipped()
				skipped += s
			}
			if kern.name == "avx512" && skipped == 0 {
				t.Errorf("%s: the avx512 kernel skipped no pair", v.name)
			}
		}
	})
}

// TestMaskUnsafeLayersRunDense pins the skip-safe rule on every kernel
// the host has. The hidden layer's huge negative biases make its output
// +0 in every row, so the output layer could skip every input. Where it
// must not, skipping would change the answer: a -0 bias gives +0 dense
// (-0 plus a +0 product) and -0 skipped, and a ±Inf or NaN weight gives
// NaN dense (∞·0) and a number skipped. Such a layer must read all
// ones and match the scalar oracle. A weight beyond binary16's range is
// finite in f64 but ±Inf in the f16 view, which must run dense too.
func TestMaskUnsafeLayersRunDense(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, c := range []struct {
			name string
			set  func(out *dense)
		}{
			{"-0 bias", func(out *dense) { out.b[1] = math.Copysign(0, -1) }},
			{"+Inf weight", func(out *dense) { out.w[1*out.in+3] = math.Inf(1) }},
			{"-Inf weight", func(out *dense) { out.w[1*out.in+3] = math.Inf(-1) }},
			{"NaN weight", func(out *dense) { out.w[1*out.in+3] = math.NaN() }},
		} {
			n, err := New(Config{In: 23, Out: 4, Hidden: []int{16}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			hidden, out := n.layers[0], n.layers[1]
			for o := range hidden.b {
				hidden.b[o] = -1e6
			}
			hidden.repack()
			for i := range out.w {
				out.w[i] = math.Abs(out.w[i])
			}
			c.set(out)
			out.repack()
			if out.skip {
				t.Fatalf("%s: layer is skip-safe", c.name)
			}
			x := randomInput(13, 23, 4)
			want := scalarPredict(n, x)
			got := NewMatrix(13, 4)
			buf := n.NewInferenceBuffers(13)
			if err := n.PredictInto(x, got, buf); err != nil {
				t.Fatal(err)
			}
			if e := sameBits(got.Data, want.Data); e >= 0 {
				t.Fatalf("%s: element %d = %#x, scalar %#x", c.name, e, math.Float64bits(got.Data[e]), math.Float64bits(want.Data[e]))
			}
			if s, pairs := buf.Skipped(); s != 0 || pairs != 2*16 {
				t.Fatalf("%s: skipped %d of %d pairs, want 0 of 32", c.name, s, pairs)
			}
		}

		n, err := New(Config{In: 23, Out: 4, Hidden: []int{16, 8}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		n.layers[1].w[5] = 1e6
		n.layers[1].repack()
		if !n.layers[1].skip {
			t.Fatal("a finite f64 weight of 1e6 is not skip-safe")
		}
		q, err := n.Quantize(QuantF16)
		if err != nil {
			t.Fatal(err)
		}
		if q.layers[1].skip {
			t.Fatal("f16 view: a weight that is +Inf in binary16 is skip-safe")
		}
	})
}

// TestMaskNeverStale runs one buffer set through a sparse tile and then
// a dense one, on every kernel the host has, at row counts with and
// without a partial row block: the masks of the first tile must not
// leak into the second, which must match the scalar oracle. The sparse
// tile's rows are all zero, so every hidden activation is ReLU of its
// bias and the columns of negative biases are +0 in every row block.
func TestMaskNeverStale(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		n := testNetwork(t)
		rng := mathutil.NewRNG(8)
		for _, l := range n.layers {
			for o := range l.b {
				l.b[o] = rng.NormFloat64()
			}
			l.repack()
		}
		for _, rows := range []int{5, 13, 16, 64} {
			buf := n.NewInferenceBuffers(rows)
			sparse := NewMatrix(rows, 23)
			checkPredictMatchesScalar(t, n, sparse, buf, fmt.Sprintf("rows=%d sparse tile", rows))
			if s, _ := buf.Skipped(); kern.name == "avx512" && s == 0 {
				t.Fatalf("rows=%d: the sparse tile skipped nothing", rows)
			}
			dense := randomInput(rows, 23, int64(rows))
			for r := range rows {
				for c := range 23 {
					dense.Set(r, c, 4+math.Abs(dense.At(r, c)))
				}
			}
			checkPredictMatchesScalar(t, n, dense, buf, fmt.Sprintf("rows=%d dense tile after a sparse one", rows))
			checkPredictMasks(t, buf, rows, fmt.Sprintf("rows=%d dense tile", rows))
		}
	})
}
