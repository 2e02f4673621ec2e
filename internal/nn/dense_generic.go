//go:build !amd64

package nn

// useAVX is always false off amd64, where there is no assembly kernel;
// it exists so the tests that switch the kernel off build everywhere.
var useAVX bool

// denseForward computes one dense layer, dst = act(x·Wᵀ + b); see the
// amd64 version for the contract. Without the AVX micro-kernel the
// whole layer runs on denseForwardBlocked and pack goes unused.
func denseForward(x []float64, rows, in int, w, b []float64, nout int, relu bool, dst, _ []float64) {
	denseForwardBlocked(x, rows, in, w, b, nout, 0, relu, dst)
}

// gemm computes dst = x·b for the backward pass; see the amd64 version
// for the contract. Without the AVX micro-kernel it always runs on
// denseForwardBlocked.
func gemm(x []float64, rows, k int, b []float64, n int, dst []float64, s *gemmScratch) {
	gemmBlocked(x, rows, k, b, n, dst, s)
}
