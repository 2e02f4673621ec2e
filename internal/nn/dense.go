package nn

// kernel is one dense micro-kernel. run computes a rows × nout block of
// one dense layer, dst = act(x·Wᵀ + b): x is rows × in row-major with
// in ≥ 1, wp holds nout outputs' weights in packWeights' layout and b
// their biases, and dst rows are ldd elements apart. rows must be a
// multiple of the kernel's row block and nout of eight. Every kernel
// starts each element at its bias and adds w[i]*x[i] with i ascending,
// the product and the sum each rounded on its own (never a fused
// multiply-add), so all kernels produce the same bits.
type kernel struct {
	name string
	rows int
	run  func(x []float64, rows, in int, wp, b []float64, nout, ldd int, dst []float64, relu bool)
}

// maxKernelRows is the largest row block of any kernel: padding
// scratch sized for it serves every kernel.
const maxKernelRows = 8

// portable is the pure-Go kernel, which every host runs.
var portable = kernel{name: "portable", rows: 4, run: denseForwardBlocked}

// kern is the kernel every dense GEMM runs on: the widest this host has
// (hostKernels, widest first), picked once at start-up. Tests switch it
// to cover the others.
var kern = hostKernels[0]

// denseForward is the block driver every dense GEMM runs through. It
// computes dst = act(x·Wᵀ + b) on kern, with x (rows × in) and dst
// (rows × nout) row-major, and wp and b the weights and biases of
// (nout+7)&^7 outputs in packWeights' layout, the outputs past nout
// zero. Whole row blocks run straight into dst on every whole block of
// eight outputs; a last partial block of outputs runs into s.tmp, and
// rows left over from whole row blocks run padded with zero rows
// through s.xpad into s.tmp, and unpad copies out their valid part. So
// every element comes from kern, whatever the shape.
func denseForward(x []float64, rows, in int, wp, b []float64, nout int, relu bool, dst []float64, s *padScratch) {
	k := kern
	whole, n8 := rows-rows%k.rows, nout&^7
	if whole > 0 {
		// The slice expressions bound every address the kernel touches.
		xs := x[:whole*in]
		if n8 > 0 {
			k.run(xs, whole, in, wp[:n8*in], b[:n8], n8, nout, dst[:(whole-1)*nout+n8], relu)
		}
		if n8 < nout {
			t := s.tmp[:whole*8]
			k.run(xs, whole, in, wp[n8*in:(n8+8)*in], b[n8:n8+8], 8, 8, t, relu)
			unpad(dst[n8:], nout, t, 8, whole, nout-n8)
		}
	}
	if rest := rows - whole; rest > 0 {
		np := (nout + 7) &^ 7
		xp, t := s.xpad[:k.rows*in], s.tmp[:k.rows*np]
		clear(xp[copy(xp, x[whole*in:rows*in]):])
		k.run(xp, k.rows, in, wp[:np*in], b[:np], np, np, t, relu)
		unpad(dst[whole*nout:], nout, t, np, rest, nout)
	}
}

// denseForwardBlocked is the portable kernel, over blocks of 4 rows ×
// 1 output. Each block of eight outputs stays in L1 cache while every
// row streams through it, and each weight is read once per four rows.
func denseForwardBlocked(x []float64, rows, in int, wp, b []float64, nout, ldd int, dst []float64, relu bool) {
	for o8 := 0; o8 < nout; o8 += 8 {
		p := wp[o8*in : (o8+8)*in]
		for r := 0; r < rows; r += 4 {
			x0 := x[r*in : (r+1)*in]
			x1 := x[(r+1)*in : (r+2)*in][:len(x0)]
			x2 := x[(r+2)*in : (r+3)*in][:len(x0)]
			x3 := x[(r+3)*in : (r+4)*in][:len(x0)]
			for j := 0; j < 8; j++ {
				s0 := b[o8+j]
				s1, s2, s3 := s0, s0, s0
				for i, xi := range x0 {
					w := p[8*i+j]
					s0 += w * xi
					s1 += w * x1[i]
					s2 += w * x2[i]
					s3 += w * x3[i]
				}
				if relu {
					if s0 < 0 {
						s0 = 0
					}
					if s1 < 0 {
						s1 = 0
					}
					if s2 < 0 {
						s2 = 0
					}
					if s3 < 0 {
						s3 = 0
					}
				}
				d := dst[r*ldd+o8+j:]
				d[0], d[ldd], d[2*ldd], d[3*ldd] = s0, s1, s2, s3
			}
		}
	}
}

// packWeights lays out w (out × in, output-major) in the order the
// kernels read it, padded with zero outputs to a multiple of eight: the
// block of outputs o..o+7 holds w[o+j][i] at pack[o*in+8*i+j].
func packWeights(pack, w []float64, in, out int) {
	clearPad(pack, in, out)
	for o := 0; o < out; o++ {
		p := pack[(o&^7)*in+o%8:]
		for i, v := range w[o*in : (o+1)*in] {
			p[8*i] = v
		}
	}
}

// clearPad zeroes the padding outputs of a packed layer's last block.
func clearPad(pack []float64, in, out int) {
	r := out % 8
	if r == 0 {
		return
	}
	p := pack[(out-r)*in : (out-r+8)*in]
	for i := 0; i < in; i++ {
		clear(p[8*i+r : 8*i+8])
	}
}

// gemm computes dst = x·b, each element summed from +0 over k ascending
// as the dense kernels sum: x is (rows × k) and b (k × n), both
// row-major, and dst is (rows × n). It serves both backward products.
// b's rows are already k-major, so packing copies eight contiguous
// elements at a time.
func gemm(x []float64, rows, k int, b []float64, n int, dst []float64, s *gemmScratch) {
	n8 := (n + 7) &^ 7
	p := s.pack[:n8*k]
	packRows(p, b, k, n)
	denseForward(x, rows, k, p, s.zero[:n8], n, false, dst, &s.padScratch)
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

// unpad copies cols columns of rows rows from t, whose rows are ldt
// elements apart, to dst, whose rows are ldd apart.
func unpad(dst []float64, ldd int, t []float64, ldt, rows, cols int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*ldd:r*ldd+cols], t[r*ldt:])
	}
}

// padScratch is denseForward's workspace for padded blocks: xpad holds
// leftover rows padded to a row block, tmp the outputs of a padded
// block.
type padScratch struct {
	xpad, tmp []float64
}

// fit grows s to serve a product of (rows × k) by (k × n).
func (s *padScratch) fit(rows, k, n int) {
	grow(&s.xpad, maxKernelRows*k)
	grow(&s.tmp, padTmp(rows, n))
}

// fits reports whether s serves a product of (rows × k) by (k × n).
func (s *padScratch) fits(rows, k, n int) bool {
	return len(s.xpad) >= maxKernelRows*k && len(s.tmp) >= padTmp(rows, n)
}

// padTmp is the tmp a product of rows × n outputs needs: a padded row
// block of every output, and, only when n is not a multiple of eight,
// the last partial output block of every row.
func padTmp(rows, n int) int {
	n8 := (n + 7) &^ 7
	if n8 == n {
		return maxKernelRows * n8
	}
	return max(maxKernelRows*n8, rows*8)
}

// grow makes *b at least n long, discarding its contents if it must
// reallocate.
func grow(b *[]float64, n int) {
	if len(*b) < n {
		*b = make([]float64, n)
	}
}
