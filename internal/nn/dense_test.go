package nn

import (
	"bytes"
	"math"
	"testing"

	"fillvoid/internal/mathutil"
)

// forward is the row-at-a-time scalar oracle for one dense layer: the
// pre-activation goes to z and the activation to a. x is (n × in); z
// and a are (n × out).
func (l *dense) forward(x, z, a *Matrix) {
	n := x.Rows
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		zr := z.Row(r)
		ar := a.Row(r)
		for o := 0; o < l.out; o++ {
			w := l.w[o*l.in : (o+1)*l.in]
			s := l.b[o]
			for i, wi := range w {
				s += wi * xr[i]
			}
			zr[o] = s
			if l.relu && s < 0 {
				ar[o] = 0
			} else {
				ar[o] = s
			}
		}
	}
}

// backward is the row-at-a-time scalar oracle for one dense layer's
// backward pass: it converts dA (the gradient with respect to the
// activation) through the ReLU to dZ in place, accumulates the weight
// and bias gradients into gw and gb, and writes the gradient with
// respect to x into dX when dX is non-nil.
func (l *dense) backward(x, z, dA *Matrix, gw, gb []float64, dX *Matrix) {
	n := x.Rows
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		zr := z.Row(r)
		dr := dA.Row(r)
		if l.relu {
			for o := 0; o < l.out; o++ {
				if zr[o] <= 0 {
					dr[o] = 0
				}
			}
		}
		for o := 0; o < l.out; o++ {
			d := dr[o]
			if d == 0 {
				continue
			}
			gb[o] += d
			gwRow := gw[o*l.in : (o+1)*l.in]
			for i, xi := range xr {
				gwRow[i] += d * xi
			}
		}
		if dX != nil {
			dxr := dX.Row(r)
			for i := range dxr {
				dxr[i] = 0
			}
			for o := 0; o < l.out; o++ {
				d := dr[o]
				if d == 0 {
					continue
				}
				w := l.w[o*l.in : (o+1)*l.in]
				for i, wi := range w {
					dxr[i] += d * wi
				}
			}
		}
	}
}

// scalarPredict runs x through every layer of n on the scalar oracle.
func scalarPredict(n *Network, x *Matrix) *Matrix {
	cur := x
	for _, l := range n.layers {
		z, a := NewMatrix(x.Rows, l.out), NewMatrix(x.Rows, l.out)
		l.forward(cur, z, a)
		cur = a
	}
	return cur
}

// kernelInput is a rows × in block of normal values in which the first
// four of every eight rows are special: all zeros, then one NaN, one
// +Inf and one -Inf.
func kernelInput(rows, in int, seed int64) *Matrix {
	x := randomInput(rows, in, seed)
	for r := 0; r < rows; r++ {
		row := x.Row(r)
		switch r % 8 {
		case 0:
			clear(row)
		case 1:
			row[r%in] = math.NaN()
		case 2:
			row[r%in] = math.Inf(1)
		case 3:
			row[r%in] = math.Inf(-1)
		}
	}
	return x
}

// unwritten marks destination elements no kernel has stored to; no
// arithmetic produces this signalling-NaN pattern.
var unwritten = math.Float64frombits(0x7ff0_dead_beef_0001)

// eachKernel runs f as one subtest or sub-benchmark per kernel this
// host has, widest first, each named after its kernel, and restores
// the detected kernel afterwards.
func eachKernel[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, f func(T)) {
	detected := kern
	defer func() { kern = detected }()
	for _, k := range hostKernels {
		kern = k
		t.Run(k.name, f)
	}
}

// TestDenseForwardMatchesScalar pins the block driver by Float64bits
// against the scalar oracle on every kernel the host has, over every
// split denseForward makes (whole row and output blocks, several output
// blocks per row, a partial block of 1–7 outputs, leftover rows padded
// to a row block), with and without ReLU. Output 0 has a -0 bias and
// negative weights, so an all-zero row sums to exactly -0; other rows
// carry NaN and ±Inf. ReLU must keep -0 and NaN as
// `if s < 0 { s = 0 }` does: Go's max(s, 0) turns -0 into +0, and
// VMAXPD with its sources swapped turns both into +0.
func TestDenseForwardMatchesScalar(t *testing.T) {
	eachKernel(t, testDenseForwardMatchesScalar)
}

func testDenseForwardMatchesScalar(t *testing.T) {
	for _, in := range []int{1, 3, 23, 128} {
		for _, nout := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 24, 128} {
			l := newDense(in, nout, false)
			rng := mathutil.NewRNG(int64(1000*in + nout))
			for i := range l.w {
				l.w[i] = rng.NormFloat64()
			}
			for i := range l.b {
				l.b[i] = rng.NormFloat64()
			}
			l.b[0] = math.Copysign(0, -1)
			for i := 0; i < in; i++ {
				l.w[i] = -0.5 - math.Abs(l.w[i])
			}
			l.repack()
			var pad padScratch
			pad.fit(512, in, nout)
			for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 511, 512} {
				x := kernelInput(rows, in, int64(rows))
				for _, relu := range []bool{false, true} {
					l.relu = relu
					z, want := NewMatrix(rows, nout), NewMatrix(rows, nout)
					l.forward(x, z, want)
					// One spare row past the end catches stray stores.
					got := make([]float64, (rows+1)*nout)
					for e := range got {
						got[e] = unwritten
					}
					denseForward(x.Data, rows, in, nil, l.pw, l.pb, nout, relu, got[:rows*nout], nil, &pad)
					if e := sameBits(got, want.Data); e >= 0 {
						if e >= rows*nout {
							t.Fatalf("in=%d nout=%d rows=%d: stored past the end", in, nout, rows)
						}
						t.Fatalf("in=%d nout=%d rows=%d relu=%v: (%d,%d) = %#x, scalar %#x",
							in, nout, rows, relu, e/nout, e%nout, math.Float64bits(got[e]), math.Float64bits(want.Data[e]))
					}
				}
			}
		}
	}
}

// backwardCase is one denseBackward input: a layer, its input x, its
// pre-activation z and activation a = relu(z) as the kernel computes
// it, and the upstream gradient dA.
type backwardCase struct {
	l        *dense
	x, z, a  *Matrix
	dA       *Matrix
	rows, in int
}

// newBackwardCase draws a case in which z holds exact +0, -0, NaN and
// negative entries, so the ReLU masks every z <= 0 and keeps NaN, and
// dA holds exact +0 and -0 entries, which the oracle skips and the
// kernel adds.
func newBackwardCase(rows, in, out int, relu bool, seed int64) *backwardCase {
	l := newDense(in, out, relu)
	rng := mathutil.NewRNG(seed)
	for i := range l.w {
		l.w[i] = rng.NormFloat64()
	}
	c := &backwardCase{l: l, x: randomInput(rows, in, seed+1), z: randomInput(rows, out, seed+2),
		a: NewMatrix(rows, out), dA: randomInput(rows, out, seed+3), rows: rows, in: in}
	for e, v := range c.z.Data {
		switch {
		case e%5 == 1:
			v = 0
		case e%7 == 2:
			v = math.Copysign(0, -1)
		case e%13 == 6:
			v = math.NaN()
		}
		c.z.Data[e] = v
		if relu && v < 0 {
			v = 0
		}
		c.a.Data[e] = v
	}
	for e := range c.dA.Data {
		switch {
		case e%3 == 0:
			c.dA.Data[e] = 0
		case e%11 == 4:
			c.dA.Data[e] = math.Copysign(0, -1)
		}
	}
	return c
}

// backwardResult holds one layer's gradients and the dZ left in dA.
type backwardResult struct {
	gw, gb, dX, dZ []float64
}

// scalar runs the oracle on a copy of dA.
func (c *backwardCase) scalar() backwardResult {
	out := c.l.out
	r := backwardResult{gw: make([]float64, out*c.in), gb: make([]float64, out)}
	dZ, dX := c.dA.Clone(), NewMatrix(c.rows, c.in)
	c.l.backward(c.x, c.z, dZ, r.gw, r.gb, dX)
	r.dX, r.dZ = dX.Data, dZ.Data
	return r
}

// blocked runs denseBackward on a copy of dA, into outputs that start
// as the unwritten pattern and carry one spare row past the end.
func (c *backwardCase) blocked() backwardResult {
	out := c.l.out
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = unwritten
		}
		return s
	}
	r := backwardResult{gw: fill((out + 1) * c.in), gb: fill(out + 1), dX: fill((c.rows + 1) * c.in)}
	r.dZ = append([]float64(nil), c.dA.Data...)
	var s gemmScratch
	s.fit(c.rows, c.in, out)
	denseBackward(c.x.Data, c.rows, c.in, c.l.w, out, c.l.relu, c.a.Data, r.dZ, r.gw[:out*c.in], r.gb[:out], r.dX[:c.rows*c.in], &s)
	return r
}

// sameBits reports the first element at which got differs from want by
// Float64bits, or -1; got may be longer, and its extra elements must
// still hold the unwritten pattern.
func sameBits(got, want []float64) int {
	for e, w := range want {
		if math.Float64bits(got[e]) != math.Float64bits(w) {
			return e
		}
	}
	for e := len(want); e < len(got); e++ {
		if math.Float64bits(got[e]) != math.Float64bits(unwritten) {
			return e
		}
	}
	return -1
}

// TestDenseBackwardMatchesScalar pins denseBackward by Float64bits
// against the scalar oracle over shapes that reach every split the
// driver makes (whole row and column blocks, a zero-padded block of 1–7
// columns, leftover rows padded to a row block), with and without
// ReLU, on every kernel the host has. The oracle skips zero gradients
// and denseBackward adds their terms, which must not change a bit for
// finite operands. The non-finite subtest pins the one difference: an
// infinite input or weight under a zero gradient gives NaN, and every
// kernel agrees on every bit.
func TestDenseBackwardMatchesScalar(t *testing.T) {
	eachKernel(t, testDenseBackwardMatchesScalar)
	t.Run("non-finite", testDenseBackwardNonFinite)
}

func testDenseBackwardMatchesScalar(t *testing.T) {
	for _, rows := range []int{1, 3, 4, 5, 8, 100, 256} {
		for _, in := range []int{1, 3, 8, 23, 128} {
			for _, out := range []int{1, 4, 7, 8, 9, 16, 128} {
				for _, relu := range []bool{false, true} {
					c := newBackwardCase(rows, in, out, relu, int64(1_000_000*rows+1000*in+out))
					want, got := c.scalar(), c.blocked()
					for _, f := range []struct {
						name      string
						got, want []float64
					}{
						{"gw", got.gw, want.gw}, {"gb", got.gb, want.gb},
						{"dX", got.dX, want.dX}, {"dZ", got.dZ, want.dZ},
					} {
						if e := sameBits(f.got, f.want); e >= 0 {
							w := unwritten
							if e < len(f.want) {
								w = f.want[e]
							}
							t.Fatalf("rows=%d in=%d out=%d relu=%v: %s[%d] = %#x, scalar %#x",
								rows, in, out, relu, f.name, e, math.Float64bits(f.got[e]), math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

func testDenseBackwardNonFinite(t *testing.T) {
	const rows, in, out = 9, 23, 16
	c := newBackwardCase(rows, in, out, true, 42)
	// A +Inf input and a -Inf weight, each meeting a zero gradient.
	const r0, i0, o0 = 5, 20, 3 // x[r0][i0] = +Inf, dA[r0][o0] = 0
	const r1, i1, o1 = 6, 17, 9 // w[o1][i1] = -Inf, dA[r1][o1] = 0
	c.x.Set(r0, i0, math.Inf(1))
	c.dA.Set(r0, o0, 0)
	c.l.w[o1*in+i1] = math.Inf(-1)
	c.dA.Set(r1, o1, 0)

	want := c.scalar()
	var widest *backwardResult
	eachKernel(t, func(t *testing.T) {
		got := c.blocked()
		if widest == nil {
			widest = &got
		}
		for _, f := range []struct {
			name              string
			got, widest, want []float64
			nanAt             int
		}{
			{"gw", got.gw, widest.gw, want.gw, o0*in + i0},
			{"dX", got.dX, widest.dX, want.dX, r1*in + i1},
			{"gb", got.gb, widest.gb, want.gb, -1},
		} {
			if e := sameBits(f.got, f.widest); e >= 0 {
				t.Fatalf("%s[%d] = %#x, %s kernel %#x", f.name, e, math.Float64bits(f.got[e]), hostKernels[0].name, math.Float64bits(f.widest[e]))
			}
			if f.nanAt >= 0 && (!math.IsNaN(f.got[f.nanAt]) || math.IsNaN(f.want[f.nanAt])) {
				t.Fatalf("%s[%d] = %v, scalar %v: want NaN from 0·∞ where the scalar loop skipped the zero gradient",
					f.name, f.nanAt, f.got[f.nanAt], f.want[f.nanAt])
			}
		}
	})
}

// scalarShardGradient is shardGradient on the scalar forward and
// backward oracles.
func scalarShardGradient(n *Network, sx, sy *Matrix, s *trainScratch, batchTotal int) float64 {
	nl, rows := len(n.layers), sx.Rows
	zs, as, dA := make([]*Matrix, nl), make([]*Matrix, nl), make([]*Matrix, nl)
	cur := sx
	for li, l := range n.layers {
		zs[li], as[li], dA[li] = NewMatrix(rows, l.out), NewMatrix(rows, l.out), NewMatrix(rows, l.out)
		l.forward(cur, zs[li], as[li])
		cur = as[li]
	}
	scale := 2 / float64(batchTotal*sy.Cols)
	sse := 0.0
	for i, p := range as[nl-1].Data {
		d := p - sy.Data[i]
		sse += d * d
		dA[nl-1].Data[i] = d * scale
	}
	for li := nl - 1; li >= 0; li-- {
		x, dX := sx, (*Matrix)(nil)
		if li > 0 {
			x, dX = as[li-1], dA[li-1]
		}
		clear(s.gw[li])
		clear(s.gb[li])
		n.layers[li].backward(x, zs[li], dA[li], s.gw[li], s.gb[li], dX)
	}
	return sse
}

// TestTrainingMatchesScalarOracle trains the network the repo benchmark
// pretrains (23→128,64,32,16,8→4) for three epochs at batch 100 with
// one, two and three workers, once as production does and once on the
// scalar oracles, on every kernel the host has. 1,050 rows leave a last batch
// of 50, and three workers make uneven shards (34, 34, 32 and 17, 17,
// 16 rows). Losses, weights and Save bytes must agree bit for bit.
func TestTrainingMatchesScalarOracle(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		x, y := randomInput(1050, 23, 1), randomInput(1050, 4, 2)
		for _, workers := range []int{1, 2, 3} {
			cfg := Config{In: 23, Out: 4, Hidden: []int{128, 64, 32, 16, 8}, Seed: 7, BatchSize: 100, Workers: workers}
			prod, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := prod.TrainEpochs(x, y, 3)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.trainEpochs(x, y, 3, RunOptions{}, scalarShardGradient)
			if err != nil {
				t.Fatal(err)
			}
			if e := sameBits(got, want); e >= 0 {
				t.Fatalf("workers=%d: epoch %d loss %v, oracle %v", workers, e, got[e], want[e])
			}
			for li, l := range prod.layers {
				if e := sameBits(l.w, oracle.layers[li].w); e >= 0 {
					t.Fatalf("workers=%d: layer %d w[%d] = %v, oracle %v", workers, li, e, l.w[e], oracle.layers[li].w[e])
				}
				if e := sameBits(l.b, oracle.layers[li].b); e >= 0 {
					t.Fatalf("workers=%d: layer %d b[%d] = %v, oracle %v", workers, li, e, l.b[e], oracle.layers[li].b[e])
				}
			}
			var pb, ob bytes.Buffer
			if err := prod.Save(&pb); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Save(&ob); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb.Bytes(), ob.Bytes()) {
				t.Fatalf("workers=%d: Save bytes differ from the oracle's", workers)
			}
		}
	})
}
