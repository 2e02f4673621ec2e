package nn

import "math"

// dense is one fully connected layer: y = act(x W^T + b), with weights
// stored output-major (W[o*in+i]).
type dense struct {
	in, out int
	w       []float64
	b       []float64
	// pw and pb are w and b as the kernels read them, in packWeights'
	// layout and padded with zero outputs to a multiple of eight.
	// repack rebuilds them; every change to w or b must call it.
	pw, pb []float64
	relu   bool // ReLU after affine; the final layer is linear
	frozen bool // skip the optimizer update (Case 2 fine-tuning)
}

func newDense(in, out int, relu bool) *dense {
	out8 := (out + 7) &^ 7
	return &dense{in: in, out: out, w: make([]float64, in*out), b: make([]float64, out),
		pw: make([]float64, in*out8), pb: make([]float64, out8), relu: relu}
}

// repack rebuilds the packed copy of the layer's weights and biases.
func (l *dense) repack() {
	packWeights(l.pw, l.w, l.in, l.out)
	copy(l.pb, l.b)
}

// initHe applies He (Kaiming) initialization, the standard scheme for
// ReLU networks: w ~ N(0, sqrt(2/fan_in)).
func (l *dense) initHe(rnd interface{ NormFloat64() float64 }) {
	std := math.Sqrt(2 / float64(l.in))
	for i := range l.w {
		l.w[i] = rnd.NormFloat64() * std
	}
	for i := range l.b {
		l.b[i] = 0
	}
}

// paramCount returns the number of trainable scalars in the layer.
func (l *dense) paramCount() int { return len(l.w) + len(l.b) }

// denseBackward is one dense layer's backward pass over rows samples:
// x (rows × in) is the layer's input, w (out × in) its weights, a (rows
// × out) its activation as denseForward wrote it and dA (rows × out)
// the loss gradient with respect to a, which becomes dZ in place. It
// overwrites gw (out × in) and gb (out) with the weight and bias
// gradients, and dX (rows × in), when non-nil, with the gradient with
// respect to x; the first layer passes nil.
//
// The ReLU gradient masks where a == 0, which is where z <= 0 for
// every z, -0 and NaN included, because the kernel's ReLU keeps -0 and
// NaN. Each element is summed as the row-at-a-time scalar loop sums
// it, from +0: gw[o][i] adds dZ[r][o]·x[r][i] and gb[o] adds dZ[r][o]
// with r ascending, dX[r][i] adds dZ[r][o]·w[o][i] with o ascending.
// The scalar loop skipped zero gradients; adding their terms changes no
// bits for finite operands, since an accumulator that starts at +0
// never becomes -0 and adding ±0 leaves every other value as it was.
// A non-finite x or w under a zero gradient now gives NaN (0·∞).
func denseBackward(x []float64, rows, in int, w []float64, out int, relu bool, a, dA, gw, gb, dX []float64, s *gemmScratch) {
	reluGrad(dA, a, rows, out, relu, gb)
	dzT := s.dzT[:out*rows]
	transpose(dzT, dA, rows, out)
	gemm(dzT, out, rows, x, in, gw, s)
	if dX != nil {
		gemm(dA, rows, out, w, in, dX, s)
	}
}

// reluGrad turns dA (rows × out) into dZ in place, zeroing it where
// a == 0 when relu is set, and overwrites gb with its column sums
// taken in row order.
func reluGrad(dA, a []float64, rows, out int, relu bool, gb []float64) {
	gb = gb[:out]
	clear(gb)
	for r := 0; r < rows; r++ {
		dr := dA[r*out:][:out]
		if relu {
			maskRow(dr, a[r*out:][:out])
		}
		for o, d := range dr {
			gb[o] += d
		}
	}
}

// maskRow zeroes d where a is ±0. keep is all ones unless it is:
// adding 2⁶³-1 to a's magnitude bits carries into bit 63 exactly when
// they are nonzero. It is integer arithmetic, so no branch follows the
// ReLU pattern.
func maskRow(d, a []float64) {
	a = a[:len(d)]
	for o, v := range a {
		keep := -((math.Float64bits(v)&^(1<<63) + (1<<63 - 1)) >> 63)
		d[o] = math.Float64frombits(math.Float64bits(d[o]) & keep)
	}
}

// transpose writes the (cols × rows) transpose of src (rows × cols) to
// dst, eight source rows at a time so each store sequence fills a whole
// cache line of dst: a column-at-a-time walk stores rows elements
// apart, which for a few hundred rows maps every store to the same few
// L1 sets.
func transpose(dst, src []float64, rows, cols int) {
	r := 0
	for ; r+8 <= rows; r += 8 {
		s0, s1, s2, s3 := src[r*cols:][:cols], src[(r+1)*cols:][:cols], src[(r+2)*cols:][:cols], src[(r+3)*cols:][:cols]
		s4, s5, s6, s7 := src[(r+4)*cols:][:cols], src[(r+5)*cols:][:cols], src[(r+6)*cols:][:cols], src[(r+7)*cols:][:cols]
		for c := range s0 {
			d := dst[c*rows+r:][:8]
			d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
			d[4], d[5], d[6], d[7] = s4[c], s5[c], s6[c], s7[c]
		}
	}
	for ; r < rows; r++ {
		for c, v := range src[r*cols:][:cols] {
			dst[c*rows+r] = v
		}
	}
}

// gemmScratch is the workspace of denseBackward and gemm; fit sizes it.
type gemmScratch struct {
	dzT  []float64 // dZ transposed
	pack []float64 // gemm's right operand in the kernels' layout
	zero []float64 // the kernels' bias: every product sums from +0
	padScratch
}

// fit grows s to serve a layer of in inputs and out outputs at up to
// rows rows, for denseBackward and for the forward pass's padding.
func (s *gemmScratch) fit(rows, in, out int) {
	in8 := (in + 7) &^ 7
	grow(&s.dzT, out*rows)
	grow(&s.pack, max(rows, out)*in8)
	grow(&s.zero, in8)
	s.padScratch.fit(rows, in, out) // forward
	s.padScratch.fit(out, rows, in) // dW = dZᵀ·X
	s.padScratch.fit(rows, out, in) // dX = dZ·W
}
