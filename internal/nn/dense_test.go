package nn

import (
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

// withKernelDispatch runs f once with the kernel denseForward selects
// for the running CPU and once with the AVX kernel switched off,
// restoring the detected choice afterwards.
func withKernelDispatch(t *testing.T, f func(t *testing.T)) {
	detected := useAVX
	t.Cleanup(func() { useAVX = detected })
	for _, on := range []bool{detected, false} {
		useAVX = on
		name := "portable"
		if on {
			name = "avx"
		}
		t.Run(name, f)
	}
}

// TestDenseForwardMatchesScalar pins the kernel contract by Float64bits
// against the scalar oracle, over every split denseForward makes (4×8
// blocks, several blocks per row, 1–7 leftover outputs, leftover rows)
// and over the pure-Go denseForwardBlocked alone, with and without
// ReLU, both with the detected dispatch and with AVX switched off.
// Output 0 has a -0 bias and negative weights, so an all-zero row sums
// to exactly -0; other rows carry NaN and ±Inf. ReLU must keep -0 and
// NaN as `if s < 0 { s = 0 }` does: Go's max(s, 0) turns -0 into +0,
// and VMAXPD with its sources swapped turns both into +0.
func TestDenseForwardMatchesScalar(t *testing.T) {
	withKernelDispatch(t, testDenseForwardMatchesScalar)
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
			pack := make([]float64, in*nout)
			for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 511, 512} {
				x := kernelInput(rows, in, int64(rows))
				for _, relu := range []bool{false, true} {
					l.relu = relu
					z, want := NewMatrix(rows, nout), NewMatrix(rows, nout)
					l.forward(x, z, want)
					kernels := []struct {
						name string
						run  func(dst []float64)
					}{
						{"denseForward", func(dst []float64) {
							denseForward(x.Data, rows, in, l.w, l.b, nout, relu, dst, pack)
						}},
						{"denseForwardBlocked", func(dst []float64) {
							denseForwardBlocked(x.Data, rows, in, l.w, l.b, nout, 0, relu, dst)
						}},
					}
					for _, k := range kernels {
						// One spare row past the end catches stray stores.
						got := make([]float64, (rows+1)*nout)
						for e := range got {
							got[e] = unwritten
						}
						k.run(got[:rows*nout])
						for e, w := range want.Data {
							if math.Float64bits(got[e]) != math.Float64bits(w) {
								t.Fatalf("%s in=%d nout=%d rows=%d relu=%v: (%d,%d) = %#x, scalar %#x",
									k.name, in, nout, rows, relu, e/nout, e%nout, math.Float64bits(got[e]), math.Float64bits(w))
							}
						}
						for e := rows * nout; e < len(got); e++ {
							if math.Float64bits(got[e]) != math.Float64bits(unwritten) {
								t.Fatalf("%s in=%d nout=%d rows=%d: stored past the end", k.name, in, nout, rows)
							}
						}
					}
				}
			}
		}
	}
}
