//go:build !amd64

package nn

// denseForward computes one dense layer, dst = act(x·Wᵀ + b); see the
// amd64 version for the contract. Without the SSE2 micro-kernel the
// whole layer runs on denseForwardBlocked and pack goes unused.
func denseForward(x []float64, rows, in int, w, b []float64, nout int, relu bool, dst, _ []float64) {
	denseForwardBlocked(x, rows, in, w, b, nout, 0, relu, dst)
}
