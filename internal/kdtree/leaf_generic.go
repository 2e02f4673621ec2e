//go:build !amd64

package kdtree

import "fillvoid/internal/mathutil"

// hostLeafKernels holds only the portable kernel off amd64, where there
// is no assembly kernel.
var hostLeafKernels = []leafKernel{portableLeaf}

// scan runs k on one leaf range; see leafKernel.
func (k leafKernel) scan(xs, ys, zs []float64, q mathutil.Vec3, bound float64, d2 *[maxLeaf]float64) uint64 {
	return scanLeafGo(xs, ys, zs, q, bound, d2)
}
