package nn

// gemm4x8 is the 256-bit AVX micro-kernel in dense_amd64.s. It computes
// a rows × nout block of one dense layer, rows a positive multiple of 4
// and nout of 8: x is rows × in row-major, wp holds the first nout
// outputs' weights in packWeights' layout, b their biases, and dst rows
// are ldd elements apart. Each 64-bit lane holds one (row, output)
// accumulator that starts at the bias and adds w[i]*x[i] with i
// ascending, one VMULPD and one VADDPD per step (never FMA), so every
// lane computes exactly the scalar sum.
//
//go:noescape
func gemm4x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)

// cpuHasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches.
func cpuHasAVX() bool

// useAVX selects gemm4x8 for denseForward and gemm. It is fixed at
// start-up; tests switch it off to cover the pure-Go path on AVX hosts.
var useAVX = cpuHasAVX()

// denseForward computes one dense layer, dst = act(x·Wᵀ + b): x is
// (rows × in) and dst (rows × nout), both row-major, and w is
// output-major (w[o*in+i]). pack is scratch of at least in × nout
// floats. With AVX the 4-row × 8-output blocks run on gemm4x8 and the
// outputs and rows left over on denseForwardBlocked; without it the
// whole layer runs on denseForwardBlocked.
func denseForward(x []float64, rows, in int, w, b []float64, nout int, relu bool, dst, pack []float64) {
	rows4, nout8 := rows&^3, nout&^7
	if !useAVX || nout8 == 0 || in == 0 {
		rows4 = 0
	}
	if rows4 > 0 {
		// The slice expressions bound every address the kernel touches.
		xs, ds, bs, ps := x[:rows4*in], dst[:rows4*nout], b[:nout8], pack[:nout8*in]
		packWeights(ps, w, in, nout8)
		gemm4x8(&xs[0], rows4, in, &ps[0], &bs[0], nout8, nout, &ds[0], relu)
		denseForwardBlocked(x, rows4, in, w, b, nout, nout8, relu, dst)
	}
	denseForwardBlocked(x[rows4*in:], rows-rows4, in, w, b, nout, 0, relu, dst[rows4*nout:])
}

// packWeights interleaves the weight rows of outputs [0, nout8) eight
// at a time, in the order gemm4x8 reads them: the block of outputs
// o..o+7 holds w[o+j][i] at pack[o*in+8*i+j].
func packWeights(pack, w []float64, in, nout8 int) {
	for o := 0; o < nout8; o += 8 {
		p := pack[o*in : (o+8)*in]
		for j := 0; j < 8; j++ {
			wj := w[(o+j)*in : (o+j+1)*in]
			for i, v := range wj {
				p[8*i+j] = v
			}
		}
	}
}

// gemm computes dst = x·b, each element summed from +0 over k ascending
// as the dense kernel sums: x is (rows × k) and b (k × n), both
// row-major, and dst is (rows × n). It serves both backward products,
// on gemm4x8 with AVX and on denseForwardBlocked without. b's rows are
// already k-major, so packing copies eight contiguous elements at a
// time; a last partial block of columns is padded with zero columns
// and, like the rows left over from whole 4-row blocks (padded with
// zero rows), runs on the kernel into s.tmp and is copied out.
func gemm(x []float64, rows, k int, b []float64, n int, dst []float64, s *gemmScratch) {
	if !useAVX || k == 0 {
		gemmBlocked(x, rows, k, b, n, dst, s)
		return
	}
	n8 := (n + 7) &^ 7
	p, zero := s.pack[:n8*k], s.zero[:n8]
	packRows(p, b, k, n)
	rows4 := rows &^ 3
	if rows4 > 0 {
		xs := x[:rows4*k]
		if n8 == n {
			ds := dst[:rows4*n]
			gemm4x8(&xs[0], rows4, k, &p[0], &zero[0], n, n, &ds[0], false)
		} else {
			t := s.tmp[:rows4*n8]
			gemm4x8(&xs[0], rows4, k, &p[0], &zero[0], n8, n8, &t[0], false)
			unpad(dst, t, rows4, n, n8)
		}
	}
	if rest := rows - rows4; rest > 0 {
		xp, t := s.xpad[:4*k], s.tmp[:4*n8]
		clear(xp[copy(xp, x[rows4*k:rows*k]):])
		gemm4x8(&xp[0], 4, k, &p[0], &zero[0], n8, n8, &t[0], false)
		unpad(dst[rows4*n:], t, rest, n, n8)
	}
}

// packRows lays out b (k × n, row-major) as packWeights lays out a
// weight matrix's transpose: the block of columns j..j+7 holds b[i][j+c]
// at pack[j*k+8*i+c], and the last block is zero-padded to eight.
func packRows(pack, b []float64, k, n int) {
	for j := 0; j < n; j += 8 {
		p := pack[j*k : (j+8)*k]
		if j+8 <= n {
			for i := 0; i < k; i++ {
				*(*[8]float64)(p[8*i:]) = *(*[8]float64)(b[i*n+j:])
			}
			continue
		}
		for i := 0; i < k; i++ {
			q := p[8*i : 8*i+8]
			clear(q[copy(q, b[i*n+j:(i+1)*n]):])
		}
	}
}

// unpad copies the first n columns of rows rows of t, whose rows are n8
// elements apart, to dst, whose rows are n apart.
func unpad(dst, t []float64, rows, n, n8 int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*n:(r+1)*n], t[r*n8:])
	}
}
