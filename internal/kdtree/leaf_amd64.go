package kdtree

import "fillvoid/internal/mathutil"

// scanLeaf8 and scanLeaf4 are the assembly kernels in leaf_amd64.s,
// with leafKernel's contract over pointers: x, y and z point at n
// (1..maxLeaf) coordinates each and d2 at maxLeaf distances. scanLeaf8
// is AVX-512F, eight points per step with masked loads for the last
// n%8; scanLeaf4 is AVX, four points per step with VMASKMOVPD loads for
// the last n%4. Each lane subtracts the query (VSUBPD), squares the
// three offsets (VMULPD) and adds (dx² + dy²) + dz² (VADDPD), the
// scalar expression's order, and the mask comes from VCMPPD with
// predicate NGT_UQ, which is true for an unordered (NaN) distance.
//
//go:noescape
func scanLeaf8(x, y, z *float64, n int, qx, qy, qz, bound float64, d2 *float64) uint64

//go:noescape
func scanLeaf4(x, y, z *float64, n int, qx, qy, qz, bound float64, d2 *float64) uint64

// hostLeafKernels lists the leaf kernels this CPU runs, widest first.
var hostLeafKernels = detectLeafKernels()

func detectLeafKernels() []leafKernel {
	var ks []leafKernel
	if mathutil.HasAVX512() {
		ks = append(ks, leafKernel{name: "avx512", size: 64, width: 8})
	}
	if mathutil.HasAVX() {
		ks = append(ks, leafKernel{name: "avx", size: 64, width: 4})
	}
	return append(ks, portableLeaf)
}

// scan runs k on one leaf range; see leafKernel.
func (k leafKernel) scan(xs, ys, zs []float64, q mathutil.Vec3, bound float64, d2 *[maxLeaf]float64) uint64 {
	switch k.width {
	case 8:
		return scanLeaf8(&xs[0], &ys[0], &zs[0], len(xs), q.X, q.Y, q.Z, bound, &d2[0])
	case 4:
		return scanLeaf4(&xs[0], &ys[0], &zs[0], len(xs), q.X, q.Y, q.Z, bound, &d2[0])
	}
	return scanLeafGo(xs, ys, zs, q, bound, d2)
}
