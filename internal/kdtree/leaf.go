package kdtree

import "fillvoid/internal/mathutil"

// leafKernel computes the squared distances from a query to one leaf
// range of the tree's coordinate arrays. scan takes the range as
// xs, ys and zs (1 to size points, the same length), writes point i's
// squared distance to d2[i], computed as (dx² + dy²) + dz² with
// dx = x − q.X and every product and sum rounded on its own (never a
// fused multiply-add), and returns the mask whose bit i is set exactly
// when !(d2[i] > bound), so a NaN distance passes as it does in a
// scalar comparison. Every kernel thus produces the same distances and
// mask bits. size is the kernel's leaf size: search scans ranges of at
// most size points and splits larger ones at their median.
type leafKernel struct {
	name  string
	size  int
	width int // lanes per vector step; 1 is the portable loop
}

// maxLeaf is the largest leaf size of any kernel: the distance scratch
// and the 64-bit mask hold one leaf of it.
const maxLeaf = 64

// portableLeaf is the pure-Go leaf loop, which every host runs. Its
// leaf size was measured separately from the vector kernels': smaller
// leaves suit a loop that pays one branch per point.
var portableLeaf = leafKernel{name: "portable", size: 16, width: 1}

// leaf is the kernel every k-NN search scans its leaves with: the
// widest this host has (hostLeafKernels, widest first), picked once at
// start-up. Tests switch it to cover the others.
var leaf = hostLeafKernels[0]

// HostKernels names the leaf kernels this CPU runs, widest first;
// every k-NN search runs on the first.
func HostKernels() []string {
	names := make([]string, len(hostLeafKernels))
	for i, k := range hostLeafKernels {
		names[i] = k.name
	}
	return names
}

// scanLeafGo is the portable kernel: the scalar loop, on amd64 hosts
// without AVX and every other GOARCH.
func scanLeafGo(xs, ys, zs []float64, q mathutil.Vec3, bound float64, d2 *[maxLeaf]float64) uint64 {
	var mask uint64
	ys = ys[:len(xs)]
	zs = zs[:len(xs)]
	out := d2[:len(xs)]
	for i, x := range xs {
		dx := x - q.X
		dy := ys[i] - q.Y
		dz := zs[i] - q.Z
		d := dx*dx + dy*dy + dz*dz
		out[i] = d
		if !(d > bound) {
			mask |= 1 << i
		}
	}
	return mask
}
