package nn

// gemm8x8 and gemm4x8 are the assembly kernels in dense_amd64.s, with
// the kernel contract (see kernel) over pointers: gemm8x8 is AVX-512F,
// rows a multiple of 8, one ZMM accumulator per row of an 8-row ×
// 8-output block; gemm4x8 is AVX, rows a multiple of 4, two YMM
// accumulators per row of a 4-row × 8-output block. In both, each
// 64-bit lane holds one (row, output) accumulator that starts at the
// bias and adds w[i]*x[i] with i ascending, one VMULPD and one VADDPD
// per step (never FMA), so every lane computes exactly the scalar sum.
//
//go:noescape
func gemm8x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)

//go:noescape
func gemm4x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)

// cpuHasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches.
func cpuHasAVX() bool

// cpuHasAVX512 reports whether the CPU has AVX-512F and the OS saves
// the opmask and all 32 ZMM registers across context switches.
func cpuHasAVX512() bool

// hostKernels lists the kernels this CPU runs, widest first.
var hostKernels = detectKernels()

func detectKernels() []kernel {
	var ks []kernel
	if cpuHasAVX512() {
		ks = append(ks, kernel{name: "avx512", rows: 8, run: runGemm8x8})
	}
	if cpuHasAVX() {
		ks = append(ks, kernel{name: "avx", rows: 4, run: runGemm4x8})
	}
	return append(ks, portable)
}

func runGemm8x8(x []float64, rows, in int, wp, b []float64, nout, ldd int, dst []float64, relu bool) {
	gemm8x8(&x[0], rows, in, &wp[0], &b[0], nout, ldd, &dst[0], relu)
}

func runGemm4x8(x []float64, rows, in int, wp, b []float64, nout, ldd int, dst []float64, relu bool) {
	gemm4x8(&x[0], rows, in, &wp[0], &b[0], nout, ldd, &dst[0], relu)
}
