package nn

// gemm4x4 is the packed-SSE2 micro-kernel in dense_amd64.s. It computes
// a rows × nout block of one dense layer, both positive multiples of 4:
// x is rows × in row-major, wp holds the first nout outputs' weights in
// packWeights' layout, b their biases, and dst rows are ldd elements
// apart. Each 128-bit lane holds one (row, output) accumulator that
// starts at the bias and adds w[i]*x[i] with i ascending, one MULPD and
// one ADDPD per step, so every lane computes exactly the scalar sum.
// SSE2 is part of the amd64 baseline (GOAMD64=v1): no CPU detection.
//
//go:noescape
func gemm4x4(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)

// denseForward computes one dense layer, dst = act(x·Wᵀ + b): x is
// (rows × in) and dst (rows × nout), both row-major, and w is
// output-major (w[o*in+i]). pack is scratch of at least in × nout
// floats. The 4-row × 4-output blocks run on gemm4x4; the outputs and
// rows left over run on denseForwardBlocked.
func denseForward(x []float64, rows, in int, w, b []float64, nout int, relu bool, dst, pack []float64) {
	rows4, nout4 := rows&^3, nout&^3
	if nout4 == 0 || in == 0 {
		rows4 = 0
	}
	if rows4 > 0 {
		// The slice expressions bound every address the kernel touches.
		xs, ds, bs, ps := x[:rows4*in], dst[:rows4*nout], b[:nout4], pack[:nout4*in]
		packWeights(ps, w, in, nout4)
		gemm4x4(&xs[0], rows4, in, &ps[0], &bs[0], nout4, nout, &ds[0], relu)
		denseForwardBlocked(x, rows4, in, w, b, nout, nout4, relu, dst)
	}
	denseForwardBlocked(x[rows4*in:], rows-rows4, in, w, b, nout, 0, relu, dst[rows4*nout:])
}

// packWeights interleaves the weight rows of outputs [0, nout4) four at
// a time, in the order gemm4x4 reads them: the block of outputs o..o+3
// holds w[o+j][i] at pack[o*in+4*i+j].
func packWeights(pack, w []float64, in, nout4 int) {
	for o := 0; o < nout4; o += 4 {
		w0 := w[(o+0)*in : (o+1)*in]
		w1 := w[(o+1)*in : (o+2)*in]
		w2 := w[(o+2)*in : (o+3)*in]
		w3 := w[(o+3)*in : (o+4)*in]
		p := pack[o*in : (o+4)*in]
		for i := range w0 {
			p[4*i], p[4*i+1], p[4*i+2], p[4*i+3] = w0[i], w1[i], w2[i], w3[i]
		}
	}
}
