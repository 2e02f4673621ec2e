// Package kdtree implements a 3-D k-d tree over point sets, the spatial
// index behind every neighbour-based component in fillvoid: the [1x23]
// feature extraction (5 nearest sampled points per void location), the
// nearest-neighbor and modified-Shepard reconstructors, and the discrete
// Sibson natural-neighbor reconstructor.
//
// The tree is built once over the sampled cloud and then queried from
// many goroutines concurrently; all query methods are read-only and
// allocation-free when the caller supplies scratch buffers.
//
// Neighbour order: k-NN results (KNearest, KNearestInto,
// KNearestBatchInto, KNearestPatchInto) are canonical — the k points
// first in ascending Dist2, then ascending Index, with distances
// computed like mathutil.Vec3.Dist2 — so they equal an exhaustive
// search sorted the same way, index for index and bit for bit, whatever
// the batching, warm start, brick, worker count or leaf kernel (see
// leafKernel). Nearest is not: among points at exactly the same
// distance it keeps the first one its descent visits, which the
// baselines' pinned outputs rely on.
//
// Grid nodes are searched in bulk only through recon.Plan.Neighbors,
// on KNearestPatchInto: a plane's patch of nodes is cut into small
// bricks, each answered from one candidate block (a Block) gathered by
// one centre search and one range query, with each node's list carried
// to the next node (see Block for why that is exact). Queries with no
// grid neighbours — point lists, features.Build's training rows, and
// each brick's centre — run the tree search, KNearestBatchInto or
// KNearestInto. Nearest remains for the cases the canonical order
// cannot answer alone: the plan's nearest-sample rule at an exact tie
// between the two nearest samples, Sibson's gather at off-grid points,
// linear interpolation outside the hull, and iso's Chamfer distance.
package kdtree

import (
	"math"
	"math/bits"
	"sort"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
)

// Tree is an immutable k-d tree over a fixed point set. Queries return
// indices into the original Points slice passed to Build.
type Tree struct {
	points []mathutil.Vec3
	// idx is the points permutation laid out in tree order; node n's
	// point is points[idx[n]] with children at 2n+1 and 2n+2 laid out
	// implicitly via recursion boundaries (lo, hi, mid).
	idx []int32
	// axis[n] records the split axis chosen for the subtree rooted at
	// position n of the idx slice layout.
	axis []int8
	// px/py/pz hold the point coordinates in tree order (px[n] is
	// points[idx[n]].X): a structure-of-arrays copy that replaces the
	// points[idx[mid]] double indirection on the query hot path with
	// three sequential slice loads.
	px, py, pz []float64
}

// Build constructs a tree over points. The slice is retained (not
// copied) and must not be mutated while the tree is in use. Building is
// O(n log n) and parallelizes across subtrees.
func Build(points []mathutil.Vec3) *Tree {
	t := &Tree{
		points: points,
		idx:    make([]int32, len(points)),
		axis:   make([]int8, len(points)),
	}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	if len(points) > 0 {
		b := mathutil.EmptyAABB()
		for _, p := range points {
			b = b.Extend(p)
		}
		t.build(0, len(points), b, 0)
	}
	t.px = make([]float64, len(points))
	t.py = make([]float64, len(points))
	t.pz = make([]float64, len(points))
	for n, i := range t.idx {
		p := points[i]
		t.px[n], t.py[n], t.pz[n] = p.X, p.Y, p.Z
	}
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.points) }

// Points returns the indexed point slice (shared, read-only by contract).
func (t *Tree) Points() []mathutil.Vec3 { return t.points }

// parallelBuildThreshold is the subtree size below which recursion stays
// on the current goroutine; chosen so goroutine overhead is amortized.
const parallelBuildThreshold = 1 << 14

// build organises idx[lo:hi] into tree order: the median along the
// widest axis of bounds moves to position mid=(lo+hi)/2, smaller points
// to [lo,mid) and larger to (mid,hi]. depth limits parallel fan-out.
func (t *Tree) build(lo, hi int, bounds mathutil.AABB, depth int) {
	n := hi - lo
	if n <= 1 {
		return
	}
	size := bounds.Size()
	ax := 0
	if size.Y > size.X {
		ax = 1
	}
	if size.Z > size.Component(ax) {
		ax = 2
	}
	mid := (lo + hi) / 2
	t.selectNth(lo, hi, mid, ax)
	t.axis[mid] = int8(ax)
	split := t.points[t.idx[mid]].Component(ax)
	lb := bounds
	lb.Max = lb.Max.WithComponent(ax, split)
	rb := bounds
	rb.Min = rb.Min.WithComponent(ax, split)
	if n > parallelBuildThreshold && depth < 4 {
		parallel.Fork(
			func() { t.build(lo, mid, lb, depth+1) },
			func() { t.build(mid+1, hi, rb, depth+1) },
		)
	} else {
		t.build(lo, mid, lb, depth+1)
		t.build(mid+1, hi, rb, depth+1)
	}
}

// selectNth partially sorts idx[lo:hi] so that position nth holds the
// element of rank nth along axis ax (quickselect with median-of-three).
func (t *Tree) selectNth(lo, hi, nth, ax int) {
	for hi-lo > 16 {
		p := t.medianOfThree(lo, hi, ax)
		i, j := lo, hi-1
		for i <= j {
			for t.key(i, ax) < p {
				i++
			}
			for t.key(j, ax) > p {
				j--
			}
			if i <= j {
				t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j + 1
		case nth >= i:
			lo = i
		default:
			return
		}
	}
	sub := t.idx[lo:hi]
	sort.Slice(sub, func(a, b int) bool {
		return t.points[sub[a]].Component(ax) < t.points[sub[b]].Component(ax)
	})
}

func (t *Tree) key(i, ax int) float64 { return t.points[t.idx[i]].Component(ax) }

func (t *Tree) medianOfThree(lo, hi, ax int) float64 {
	a := t.key(lo, ax)
	b := t.key((lo+hi)/2, ax)
	c := t.key(hi-1, ax)
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// Neighbor is a query result: the index of a point in the original slice
// and its squared distance to the query position.
type Neighbor struct {
	Index int
	Dist2 float64
}

// Nearest returns the index of the closest indexed point to q and the
// squared distance, or (-1, +Inf) for an empty tree. Among points at
// exactly the closest distance it returns the first one its descent
// visits, not necessarily the lowest index.
func (t *Tree) Nearest(q mathutil.Vec3) (int, float64) {
	if len(t.points) == 0 {
		return -1, inf()
	}
	// Dedicated 1-NN traversal: routing k=1 through KNearestInto makes
	// the one-element buffer escape into the heap struct, costing one
	// allocation per call.
	b := nearest1{index: -1, d2: inf()}
	t.nearest1(0, len(t.points), q, &b)
	return b.index, b.d2
}

type nearest1 struct {
	index int
	d2    float64
}

func (t *Tree) nearest1(lo, hi int, q mathutil.Vec3, b *nearest1) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	dx := t.px[mid] - q.X
	dy := t.py[mid] - q.Y
	dz := t.pz[mid] - q.Z
	if d2 := dx*dx + dy*dy + dz*dz; d2 < b.d2 {
		b.index, b.d2 = int(t.idx[mid]), d2
	}
	if hi-lo == 1 {
		return
	}
	var d float64
	switch t.axis[mid] {
	case 0:
		d = q.X - t.px[mid]
	case 1:
		d = q.Y - t.py[mid]
	default:
		d = q.Z - t.pz[mid]
	}
	if d < 0 {
		t.nearest1(lo, mid, q, b)
		if d*d < b.d2 {
			t.nearest1(mid+1, hi, q, b)
		}
	} else {
		t.nearest1(mid+1, hi, q, b)
		if d*d < b.d2 {
			t.nearest1(lo, mid, q, b)
		}
	}
}

// KNearest returns the k nearest points to q in canonical order (fewer
// when the tree holds fewer than k points).
func (t *Tree) KNearest(q mathutil.Vec3, k int) []Neighbor {
	return t.KNearestInto(q, k, nil)
}

// KNearestInto is KNearest writing into buf (reused when cap(buf) >= k)
// to let hot loops avoid allocation: when the buffer is large enough the
// call performs no heap allocation at all.
func (t *Tree) KNearestInto(q mathutil.Vec3, k int, buf []Neighbor) []Neighbor {
	if k <= 0 || len(t.points) == 0 {
		return buf[:0]
	}
	var s scratch
	b := best{items: buf[:0], k: k, bound: inf()}
	t.search(q, &b, &s)
	return b.items
}

// KNearestBatchInto answers len(queries) k-NN queries into one flat
// caller-owned buffer: query i's neighbors land in out[i*k:(i+1)*k],
// in canonical order and padded with {Index: -1, Dist2: +Inf} entries
// when the tree holds fewer than k points. out must have length >=
// len(queries)*k. workers <= 0 uses parallel.DefaultWorkers(); workers
// == 1 runs inline on the calling goroutine with zero heap allocations,
// which is what the fused inference path relies on (each reconstruction
// worker batches its own chunk serially). Returns out[:len(queries)*k].
//
// Each query after the first of a worker's range is warm-started: the
// previous query's k neighbours are k distinct points, so the largest
// squared distance from the new query to them bounds its k-th distance
// and prunes the search from the start. Neighbouring queries, such as
// grid nodes in raster order, make that bound tight. The result does
// not depend on the bound, so it equals KNearestInto's at any worker
// count.
func (t *Tree) KNearestBatchInto(queries []mathutil.Vec3, k, workers int, out []Neighbor) []Neighbor {
	if k <= 0 || len(queries) == 0 {
		return out[:0]
	}
	if len(out) < len(queries)*k {
		panic("kdtree: KNearestBatchInto buffer shorter than len(queries)*k")
	}
	if workers == 1 {
		t.knnBatchRange(queries, k, out, 0, len(queries))
	} else {
		parallel.ForChunked(len(queries), workers, func(lo, hi int) {
			t.knnBatchRange(queries, k, out, lo, hi)
		})
	}
	return out[:len(queries)*k]
}

func (t *Tree) knnBatchRange(queries []mathutil.Vec3, k int, out []Neighbor, lo, hi int) {
	var s scratch
	var prev []Neighbor
	for i := lo; i < hi; i++ {
		q := queries[i]
		bound := inf()
		if len(prev) == k {
			// Summed as in search, so every previous neighbour passes
			// the bound and the list still fills.
			bound = 0
			for _, nb := range prev {
				p := t.points[nb.Index]
				dx := p.X - q.X
				dy := p.Y - q.Y
				dz := p.Z - q.Z
				bound = max(bound, dx*dx+dy*dy+dz*dz)
			}
		}
		// Three-index slice: the list grows inside exactly the
		// [i*k, (i+1)*k) window of out, never beyond it.
		b := best{items: out[i*k : i*k : (i+1)*k], k: k, bound: bound}
		t.search(q, &b, &s)
		for j := len(b.items); j < k; j++ {
			out[i*k+j] = Neighbor{Index: -1, Dist2: inf()}
		}
		prev = b.items
	}
}

// cell is a subtree search still has to visit: the index range
// [lo, hi) of the Build layout, with q's squared distance to the
// subtree's cell and that distance's per-axis terms.
type cell struct {
	lo, hi int
	d2     float64
	sq     [3]float64
}

// scratch is the state one search needs besides its neighbour list,
// kept by the caller so that a batch reuses it across its queries
// instead of zeroing it per query. Every stacked cell is deeper than
// the one below it, and an int32-indexed tree has at most 27 levels of
// splits above its leaf ranges, so stack never overflows.
type scratch struct {
	stack [32]cell
	d2    [maxLeaf]float64
}

// search collects into b the indexed points nearest to q. It walks the
// Build layout iteratively: the index range [lo, hi) holds one subtree
// whose median, at (lo+hi)/2, splits the rest on axis[mid], and ranges
// of at most leaf.size points are scanned by the leaf kernel. A subtree
// is skipped only when q's squared distance to its cell is strictly
// greater than b.bound. That distance sums per-axis terms in the same
// order as a point distance, and each term squares the rounded gap from
// q to a split plane every point of the cell lies beyond, so it never
// exceeds the computed distance of a point in the cell: no point that
// could enter the list, ties with the k-th included, is ever skipped.
//
// The kernel masks a leaf's points against the bound at the start of
// the scan. The bound only tightens while the leaf's points are
// offered, so a point outside the mask would fail the live bound too;
// offering the masked points in index order, each rechecked against the
// live bound, makes exactly the offers a point-by-point scan makes.
func (t *Tree) search(q mathutil.Vec3, b *best, s *scratch) {
	if len(t.idx) == 0 {
		return
	}
	kern := leaf
	stack := &s.stack
	stack[0] = cell{hi: len(t.idx)}
	for n := 1; n > 0; {
		n--
		c := stack[n]
		if c.d2 > b.bound {
			continue
		}
		lo, hi := c.lo, c.hi
		for hi-lo > kern.size {
			mid := (lo + hi) / 2
			dx := t.px[mid] - q.X
			dy := t.py[mid] - q.Y
			dz := t.pz[mid] - q.Z
			if d2 := dx*dx + dy*dy + dz*dz; !(d2 > b.bound) {
				b.offer(int(t.idx[mid]), d2)
			}
			// The split plane passes through the median point, so
			// its gap from q is that point's offset on the split
			// axis; a positive gap puts q on the left child's side.
			// The near child keeps c's cell, the far one lies across
			// the plane.
			far := cell{sq: c.sq}
			var gap float64
			switch t.axis[mid] {
			case 0:
				gap, far.sq[0] = dx, dx*dx
			case 1:
				gap, far.sq[1] = dy, dy*dy
			default:
				gap, far.sq[2] = dz, dz*dz
			}
			far.d2 = far.sq[0] + far.sq[1] + far.sq[2]
			if gap > 0 {
				far.lo, far.hi = mid+1, hi
				hi = mid
			} else {
				far.lo, far.hi = lo, mid
				lo = mid + 1
			}
			if !(far.d2 > b.bound) {
				stack[n] = far
				n++
			}
		}
		// The root holds a point, and splitting a range of more than
		// kern.size >= 2 points leaves both halves non-empty, so every
		// leaf range holds one too.
		ids := t.idx[lo:hi]
		for m := kern.scan(t.px[lo:hi], t.py[lo:hi], t.pz[lo:hi], q, b.bound, &s.d2); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if d2 := s.d2[i]; !(d2 > b.bound) {
				b.offer(int(ids[i]), d2)
			}
		}
	}
}

// best is one query's running neighbour list, kept in canonical order.
// bound is the squared distance a point must not exceed to enter it:
// the warm-start bound (+Inf when cold) until the list holds k points,
// then the k-th distance.
type best struct {
	items []Neighbor
	k     int
	bound float64
}

// offer inserts a point when the list has room or the point precedes
// the current k-th neighbour, which then drops out.
func (b *best) offer(index int, d2 float64) {
	n := len(b.items)
	switch {
	case n < b.k:
		b.items = append(b.items, Neighbor{})
	case precedes(d2, index, b.items[n-1]):
		n--
	default:
		return
	}
	for n > 0 && precedes(d2, index, b.items[n-1]) {
		b.items[n] = b.items[n-1]
		n--
	}
	b.items[n] = Neighbor{Index: index, Dist2: d2}
	if len(b.items) == b.k {
		b.bound = b.items[b.k-1].Dist2
	}
}

// precedes reports whether a point at squared distance d2 with the
// given index comes before nb in the canonical order: ascending Dist2,
// then ascending Index.
func precedes(d2 float64, index int, nb Neighbor) bool {
	//lint:allow floateq: bit-exact tie-break; equal distances rank by index so every search returns the brute-force list
	return d2 < nb.Dist2 || d2 == nb.Dist2 && index < nb.Index
}

func inf() float64 { return math.Inf(1) }
