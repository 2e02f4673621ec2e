package nn

import "fillvoid/internal/mathutil"

// maskGemm8x8 and gemm4x8 are the assembly kernels in dense_amd64.s,
// with the kernel contract (see kernel) over pointers: maskGemm8x8 is
// AVX-512F, rows a multiple of 8, one ZMM accumulator per row of an
// 8-row × 8-output block, and it skips the inputs its column mask
// clears and writes the column mask of its outputs; gemm4x8 is AVX,
// rows a multiple of 4, two YMM accumulators per row of a 4-row ×
// 8-output block, and it reads no mask. In both, each 64-bit lane holds
// one (row, output) accumulator that starts at the bias and adds
// w[i]*x[i] with i ascending, one VMULPD and one VADDPD per step (never
// FMA), so every lane computes exactly the scalar sum.
//
//go:noescape
func maskGemm8x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool, xm *byte, xms int, dm *byte, dms int)

//go:noescape
func gemm4x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)

// hostKernels lists the kernels this CPU runs, widest first.
var hostKernels = detectKernels()

func detectKernels() []kernel {
	var ks []kernel
	if mathutil.HasAVX512() {
		ks = append(ks, kernel{name: "avx512", rows: 8, run: runMaskGemm8x8})
	}
	if mathutil.HasAVX() {
		ks = append(ks, kernel{name: "avx", rows: 4, run: runGemm4x8})
	}
	return append(ks, portable)
}

func runMaskGemm8x8(x []float64, rows, in int, wp, b []float64, nout, ldd int, dst []float64, relu bool, xm colMask, dm colMask) {
	// The slice expressions bound every mask byte the kernel touches.
	blocks := rows / 8
	xb := xm.b[:(blocks-1)*xm.stride+(in+7)/8]
	db := dm.b[:(blocks-1)*dm.stride+nout/8]
	maskGemm8x8(&x[0], rows, in, &wp[0], &b[0], nout, ldd, &dst[0], relu, &xb[0], xm.stride, &db[0], dm.stride)
}

func runGemm4x8(x []float64, rows, in int, wp, b []float64, nout, ldd int, dst []float64, relu bool, _ colMask, dm colMask) {
	gemm4x8(&x[0], rows, in, &wp[0], &b[0], nout, ldd, &dst[0], relu)
	dm.setAll(rows, nout)
}
