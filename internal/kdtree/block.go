package kdtree

import (
	"math"
	"math/bits"

	"fillvoid/internal/mathutil"
)

// Block is one goroutine's scratch for KNearestPatchInto: a candidate
// block, a structure-of-arrays copy of every indexed point that can be
// among the k nearest of any query of one brick, and the list it
// carries from one query of the brick to the next. It is reused across
// bricks, patches and trees without reallocating once its slices have
// grown. The zero value is ready to use.
//
// Exactness. Let c be a brick's centre, h the largest distance from c
// to a corner of the brick's box (so to any query in it), and r_c the
// distance from c to its k-th nearest point. For a query q of the
// brick, c's k nearest points lie within r_c + |q − c| of q, so q's
// k-th distance r_k(q) ≤ r_c + h, and every point of q's list lies
// within r_k(q) + |q − c| ≤ r_c + 2h of c: load gathers every point
// within that radius. Likewise, the k points of the previous query
// p's list lie within r_p + |q − p| of q, so every point of q's list
// lies within that distance of q: next masks the block under it and
// offers only the masked points. Both radii are taken with a rounding
// margin (radius and reach below), so a computed distance never falls
// outside a bound that its true distance satisfies. A margin only adds
// candidates or masked points, which costs time but cannot change a
// list: every offer is checked against the live k-th distance, exactly
// as search checks it.
type Block struct {
	k int
	// xs, ys and zs hold the candidates' coordinates and idx their
	// indices into the tree's points, in the order gather met them.
	xs, ys, zs []float64
	idx        []int32
	// kern is the leaf kernel the block is scanned with. d2 receives
	// each candidate's squared distance to the current query, one
	// kernel call per run of kern.size candidates, with maxLeaf slots
	// of slack so that the last run converts to the kernel's
	// *[maxLeaf]float64; mask holds each run's mask.
	kern leafKernel
	d2   []float64
	mask []uint64
	// list is the previous query's canonical list, the carried list;
	// in has the bit of each candidate on it, laid out like mask.
	list []entry
	in   []uint64
	// prev is the previous query (the centre before the first) and
	// reach an upper bound on the true distance from prev to the k-th
	// point of its list (+Inf while it has fewer than k).
	prev  mathutil.Vec3
	reach float64
	// centre and s are the centre search's list and scratch.
	centre []Neighbor
	s      scratch
}

// entry is one point of a carried list: its squared distance to the
// current query, its index into the tree's points, and its slot in the
// block.
type entry struct {
	d2    float64
	index int32
	slot  int32
}

// brickSide is the most columns, and the most rows, of one brick.
const brickSide = 8

// brickCandidates bounds a brick's block at brickCandidates·k points,
// or maxLeaf when that is more: a vector kernel scans maxLeaf points in
// one call whatever k is. With evenly spread points a block holds about
// k·(1 + 2h/r_c)³, so the bound keeps a brick's half-diagonal h under
// about r_c/2: bricks shrink where points are dense or k is large.
const brickCandidates = 8

// KNearestPatchInto answers k-NN queries for a patch of grid nodes in
// one plane: qs holds rows of width positions each, row-major, where X
// depends only on the column and Y only on the row, each monotone, and
// Z is the same everywhere, as GridSpec-style positions origin + i·step
// are. Query i's list lands in out[i*k:(i+1)*k] in canonical order,
// padded with {Index: -1, Dist2: +Inf} when the tree holds fewer than k
// points: the list KNearestInto returns, index and distance bits alike.
// len(qs) must be a multiple of width, out must have length >=
// len(qs)*k, and k must be at least 1.
//
// The patch is cut into bricks of at most brickSide × brickSide nodes,
// each answered from one candidate block in b (see Block), its nodes
// walked in serpentine order so that each starts from the list of a
// node one grid step away. A brick whose block would hold more than
// max(brickCandidates·k, maxLeaf) points is halved along its longer
// side first. It returns the number of candidates scanned: each
// brick's block size times its node count.
func (t *Tree) KNearestPatchInto(qs []mathutil.Vec3, width, k int, out []Neighbor, b *Block) int {
	if len(out) < len(qs)*k {
		panic("kdtree: KNearestPatchInto buffer shorter than len(qs)*k")
	}
	p := patch{t: t, b: b, qs: qs, out: out, width: width, k: k}
	rows := len(qs) / width
	for r := 0; r < rows; r += brickSide {
		for i := 0; i < width; i += brickSide {
			p.brick(i, min(i+brickSide, width), r, min(r+brickSide, rows))
		}
	}
	return p.scanned
}

// patch is one KNearestPatchInto call's state.
type patch struct {
	t       *Tree
	b       *Block
	qs      []mathutil.Vec3
	out     []Neighbor
	width   int
	k       int
	scanned int
}

// brick answers the nodes of columns [i0, i1) and rows [r0, r1) from one
// block, or halves the brick while its block would hold more than
// max(brickCandidates·k, maxLeaf) points; a one-node brick takes any
// block. Its corner nodes span a box that holds every node of the
// brick, because X is monotone along a row and Y down a column.
func (p *patch) brick(i0, i1, r0, r1 int) {
	first, last := p.qs[r0*p.width+i0], p.qs[(r1-1)*p.width+i1-1]
	limit := max(brickCandidates*p.k, maxLeaf)
	if i1-i0 == 1 && r1-r0 == 1 {
		limit = 0
	}
	if !p.b.load(p.t, first, last, p.k, limit) {
		if r1-r0 == 1 || i1-i0 > 1 && math.Abs(last.X-first.X) >= math.Abs(last.Y-first.Y) {
			m := (i0 + i1) / 2
			p.brick(i0, m, r0, r1)
			p.brick(m, i1, r0, r1)
		} else {
			m := (r0 + r1) / 2
			p.brick(i0, i1, r0, m)
			p.brick(i0, i1, m, r1)
		}
		return
	}
	p.scanned += len(p.b.idx) * (i1 - i0) * (r1 - r0)
	for r := r0; r < r1; r++ {
		// Serpentine: odd rows run backwards, so every step is one node.
		i, step := i0, 1
		if (r-r0)%2 == 1 {
			i, step = i1-1, -1
		}
		for range i1 - i0 {
			o := r*p.width + i
			p.b.next(p.qs[o], p.out[o*p.k:(o+1)*p.k])
			i += step
		}
	}
}

// Rounding margins. A squared distance computed as search computes it,
// (dx² + dy²) + dz² with each operation rounded to nearest, lies within
// a relative 8u (u = 2⁻⁵³) of the true squared distance of the same two
// points, give or take 2⁻¹⁰⁷⁰ where a square underflows. slack and floor
// cover that and every rounding of the bound arithmetic itself by a
// wide margin.
const (
	slack = 0x1p-40
	floor = 0x1p-1000
)

// radius returns a length no shorter than the true distance between two
// points whose squared distance computes to d2.
func radius(d2 float64) float64 { return math.Sqrt(d2+floor) * (1 + slack) }

// reach returns a squared distance no smaller than the computed squared
// distance of any two points whose true distance is at most r.
func reach(r float64) float64 { return r*r*(1+slack) + floor }

// load readies b to answer k-NN queries that lie in the axis-aligned
// box spanned by the opposite corners a and b2 (the box includes its
// boundary). It searches the k nearest points of the box's centre c,
// then gathers into the block every point within r_c + 2h of c (see
// Block). When limit > 0 and more than limit points lie within that
// radius, it stops early and returns false, and b answers nothing until
// the next load: the caller splits the brick instead.
func (b *Block) load(t *Tree, a, b2 mathutil.Vec3, k, limit int) bool {
	b.k = k
	b.xs, b.ys, b.zs, b.idx = b.xs[:0], b.ys[:0], b.zs[:0], b.idx[:0]
	b.list = b.list[:0]
	c := mathutil.Vec3{X: a.X/2 + b2.X/2, Y: a.Y/2 + b2.Y/2, Z: a.Z/2 + b2.Z/2}
	// The distance from c to a point of the box is largest at a
	// corner, and its square separates per axis.
	hx := max(math.Abs(a.X-c.X), math.Abs(b2.X-c.X))
	hy := max(math.Abs(a.Y-c.Y), math.Abs(b2.Y-c.Y))
	hz := max(math.Abs(a.Z-c.Z), math.Abs(b2.Z-c.Z))
	h := radius(hx*hx + hy*hy + hz*hz)
	if cap(b.centre) < k {
		b.centre = make([]Neighbor, 0, k)
	}
	nb := best{items: b.centre[:0], k: k, bound: inf()}
	t.search(c, &nb, &b.s)
	rc := inf()
	if len(nb.items) == k {
		rc = radius(nb.items[k-1].Dist2)
	}
	// Every query q of the box has r_k(q) ≤ rc + h, its list points
	// have computed distances to q of at most reach(rc + h), so true
	// distances of at most radius of that, and true distances to c of
	// at most that plus h.
	if !t.gather(c, reach(radius(reach(rc+h))+h), b, limit) {
		return false
	}
	n := len(b.idx)
	b.kern = leaf
	runs := (n + b.kern.size - 1) / b.kern.size
	b.d2 = grow(b.d2, n+maxLeaf)
	b.mask = grow(b.mask, runs)
	b.in = grow(b.in, runs)
	clear(b.in)
	b.prev, b.reach = c, rc
	return true
}

// grow returns s resliced to length n, reallocated when its capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// gather appends to b every point whose squared distance to c, computed
// as search computes it, is at most r2, walking the tree as search does
// under the fixed bound r2. It returns false as soon as more than limit
// points are gathered, when limit > 0. It is not search with a long
// list: search keeps its list sorted and tightens its bound as the list
// fills, while a range query keeps every point under a bound that never
// moves, in any order.
func (t *Tree) gather(c mathutil.Vec3, r2 float64, b *Block, limit int) bool {
	if len(t.idx) == 0 {
		return true
	}
	kern := leaf
	stack := &b.s.stack
	stack[0] = cell{hi: len(t.idx)}
	for n := 1; n > 0; {
		n--
		cl := stack[n]
		lo, hi := cl.lo, cl.hi
		for hi-lo > kern.size {
			mid := (lo + hi) / 2
			dx := t.px[mid] - c.X
			dy := t.py[mid] - c.Y
			dz := t.pz[mid] - c.Z
			if d2 := dx*dx + dy*dy + dz*dz; !(d2 > r2) {
				b.add(t, mid)
			}
			// The far child's cell distance, as in search.
			far := cell{sq: cl.sq}
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
			if !(far.d2 > r2) {
				stack[n] = far
				n++
			}
		}
		for m := kern.scan(t.px[lo:hi], t.py[lo:hi], t.pz[lo:hi], c, r2, &b.s.d2); m != 0; m &= m - 1 {
			b.add(t, lo+bits.TrailingZeros64(m))
		}
		if limit > 0 && len(b.idx) > limit {
			return false
		}
	}
	return true
}

// add appends the point at position n of t's layout to the block.
func (b *Block) add(t *Tree, n int) {
	b.xs = append(b.xs, t.px[n])
	b.ys = append(b.ys, t.py[n])
	b.zs = append(b.zs, t.pz[n])
	b.idx = append(b.idx, t.idx[n])
}

// next writes q's k nearest points in canonical order to out[:k],
// padded with {Index: -1, Dist2: +Inf} when the tree holds fewer than k
// points. q must lie in the box of the last successful load. The call
// starts from the list of the previous query since that load, scans the
// block once with the leaf kernel under the bound that list gives (see
// Block), re-sorts the carried list on q's distances, and offers the
// masked candidates that are not on it.
func (b *Block) next(q mathutil.Vec3, out []Neighbor) {
	k := b.k
	dx := q.X - b.prev.X
	dy := q.Y - b.prev.Y
	dz := q.Z - b.prev.Z
	bound := reach(b.reach + radius(dx*dx+dy*dy+dz*dz))
	kern := b.kern
	n := len(b.idx)
	for run, lo := 0, 0; lo < n; run, lo = run+1, lo+kern.size {
		hi := min(lo+kern.size, n)
		b.mask[run] = kern.scan(b.xs[lo:hi], b.ys[lo:hi], b.zs[lo:hi], q, bound, (*[maxLeaf]float64)(b.d2[lo:]))
	}
	// The carried points' new distances come from the scan; the list
	// was canonical for prev, so insertion sort has little to move.
	list := b.list
	for i := range list {
		e := list[i]
		e.d2 = b.d2[e.slot]
		j := i
		for ; j > 0 && e.before(list[j-1]); j-- {
			list[j] = list[j-1]
		}
		list[j] = e
	}
	kth := inf()
	if len(list) == k {
		kth = list[k-1].d2
	}
	// Carried points leave the mask: they are on the list already. A
	// point the loop evicts cannot come back, as the list only improves.
	for run, m := range b.mask {
		for m &^= b.in[run]; m != 0; m &= m - 1 {
			slot := run*kern.size + bits.TrailingZeros64(m)
			d2 := b.d2[slot]
			if d2 > kth {
				continue
			}
			e := entry{d2: d2, index: b.idx[slot], slot: int32(slot)}
			j := len(list)
			if j < k {
				list = append(list, e)
			} else if e.before(list[j-1]) {
				j--
				b.flip(list[j].slot)
			} else {
				continue
			}
			for ; j > 0 && e.before(list[j-1]); j-- {
				list[j] = list[j-1]
			}
			list[j] = e
			b.flip(e.slot)
			if len(list) == k {
				kth = list[k-1].d2
			}
		}
	}
	for i, e := range list {
		out[i] = Neighbor{Index: int(e.index), Dist2: e.d2}
	}
	for i := len(list); i < k; i++ {
		out[i] = Neighbor{Index: -1, Dist2: inf()}
	}
	b.list = list
	b.prev = q
	b.reach = inf()
	if len(list) == k {
		b.reach = radius(kth)
	}
}

// flip toggles slot's bit in b.in.
func (b *Block) flip(slot int32) {
	size := int32(b.kern.size)
	b.in[slot/size] ^= 1 << (slot % size)
}

// before reports whether e comes before f in the canonical order.
func (e entry) before(f entry) bool {
	//lint:allow floateq: bit-exact tie-break; equal distances rank by index, as precedes does
	return e.d2 < f.d2 || e.d2 == f.d2 && e.index < f.index
}
