//go:build !amd64

package nn

// hostKernels holds only the portable kernel off amd64, where there is
// no assembly kernel.
var hostKernels = []kernel{portable}
