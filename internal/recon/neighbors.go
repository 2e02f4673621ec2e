package recon

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/telemetry"
)

// NeighborTile is the most queries one NeighborVisitor call receives.
const NeighborTile = 512

// NeighborVisitor receives one tile of a Neighbors pass: the index w of
// the worker running it, the region ordinal of the tile's first query,
// the tile's query positions, and their canonical k-NN lists, flat
// (query i's list is nbs[i*k:(i+1)*k], padded with {Index: -1, Dist2:
// +Inf} when the cloud holds fewer than k samples). A tile is at most
// NeighborTile consecutive region ordinals. Both slices are the
// worker's scratch and are overwritten by its next tile. Tiles of one
// worker arrive in region order; different workers run concurrently.
type NeighborVisitor func(w, first int, queries []mathutil.Vec3, nbs []kdtree.Neighbor) error

// Neighbors runs the plan's neighbour pass over region: the k nearest
// samples of every query, in kdtree's canonical order, equal to an
// exhaustive search sorted that way, index and distance bits alike. It
// takes box, full-grid and point-list regions. Each of
// min(workers, units) workers (workers <= 0: parallel.DefaultWorkers())
// takes one contiguous range of units, worker w the w-th, where a unit
// is a grid row of a box or full-grid region and a query of a point
// list.
//
// A grid worker's tiles are as many whole rows as fit in NeighborTile
// queries, or segments of NeighborTile queries of one row when a row is
// longer. Each plane's rows of a tile are one patch for
// kdtree.KNearestPatchInto, which answers the patch in small bricks of
// nodes, each from one candidate block that holds every sample any of
// its nodes can have among its k nearest, and carries each node's list
// to the next. A point list has no grid neighbours: its tiles of
// NeighborTile queries each run one warm-started KNearestBatchInto.
//
// A box outside the plan's grid is refused with Region.Validate's
// error. ctx is checked once per tile; the pass stops at the first
// visitor error or cancellation and returns it. visit may be nil. A
// full-grid pass with k >= 2 on a plan without a nearest table fills
// one from its lists (see NearestOf) and publishes it when the pass
// completes, unless another pass published first.
func (p *Plan) Neighbors(ctx context.Context, region Region, k, workers int, visit NeighborVisitor) error {
	if k < 1 {
		return fmt.Errorf("recon: neighbour pass needs k >= 1, got %d", k)
	}
	if err := region.Validate(p.spec); err != nil {
		return err
	}
	var idx []int32
	var d2 []float64
	if k >= 2 && region.IsFull(p.spec) && !p.nearBuilt.Load() {
		idx, d2 = make([]int32, p.spec.Len()), make([]float64, p.spec.Len())
	}
	if err := p.pass(ctx, region, k, workers, visit, idx, d2); err != nil {
		return err
	}
	if idx != nil {
		p.nearOnce.Do(func() { p.setNearest(idx, d2) })
	}
	return nil
}

// pass is Neighbors without the table bookkeeping: when nearIdx and
// nearD2 are non-nil (region.Len() long, k >= 2), it also writes every
// query's NearestOf answer into them. Each call is one recon/neighbors
// span and adds its queries, the block candidates its grid nodes
// scanned, and its search time (tiles' positions and lists, visitor
// excluded) to the recon.neighbors counters.
func (p *Plan) pass(ctx context.Context, region Region, k, workers int, visit NeighborVisitor, nearIdx []int32, nearD2 []float64) error {
	reg := telemetry.Default()
	ctx, sp := reg.Start(ctx, "recon/neighbors")
	defer sp.End()
	n := region.Len()
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	units := n
	if !region.IsPoints() {
		_, ny, nz := region.Dims()
		units = ny * nz
	}
	workers = min(workers, units)
	chunk := (units + workers - 1) / workers
	tree := p.Tree()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	timed := reg.Enabled()
	parallel.ForChunked(units, workers, func(lo, hi int) {
		// ForChunked hands worker w the range starting at w*chunk.
		w := lo / chunk
		pw := passWorker{tree: tree, spec: p.spec, region: region, k: k, workers: workers, timed: timed}
		err := pw.run(ctx, lo, hi, func(first int, qs []mathutil.Vec3, nbs []kdtree.Neighbor) error {
			if nearIdx != nil {
				for i, q := range qs {
					j, d := p.NearestOf(q, nbs[i*k:(i+1)*k])
					nearIdx[first+i], nearD2[first+i] = int32(j), d
				}
			}
			if visit == nil {
				return nil
			}
			return visit(w, first, qs, nbs)
		})
		if err != nil {
			errOnce.Do(func() { firstErr = err })
			cancel()
		}
		if timed {
			reg.Counter("recon.neighbors.queries").Add(pw.queries)
			reg.Counter("recon.neighbors.candidates").Add(pw.candidates)
			reg.Counter("recon.neighbors.search_ns").Add(int64(pw.search))
		}
	})
	return firstErr
}

// passWorker is one worker's state in a pass: its tile's positions and
// lists, and what it searched so far: queries, the block candidates its
// grid nodes scanned, and, when timed, the time its tiles' positions
// and lists took.
type passWorker struct {
	tree       *kdtree.Tree
	spec       GridSpec
	region     Region
	k          int
	workers    int
	timed      bool
	s          *passScratch
	qs         []mathutil.Vec3
	nbs        []kdtree.Neighbor
	queries    int64
	candidates int64
	search     time.Duration
}

// run searches the worker's units [lo, hi) tile by tile, on pooled
// scratch sized for its largest tile, and hands each tile to emit,
// checking ctx before each tile. It returns the first ctx or emit
// error.
func (w *passWorker) run(ctx context.Context, lo, hi int, emit func(first int, qs []mathutil.Vec3, nbs []kdtree.Neighbor) error) error {
	// A point list's unit is one query: a row of one.
	nx, rows, width := 1, NeighborTile, 1
	if !w.region.IsPoints() {
		nx, _, _ = w.region.Dims()
		rows, width = max(1, NeighborTile/nx), min(nx, NeighborTile)
	}
	w.s = getPassScratch(min(rows, hi-lo)*width, w.k)
	defer putPassScratch(w.s, w.workers)
	for r := lo; r < hi; r += rows {
		for c := 0; c < nx; c += width {
			if err := ctx.Err(); err != nil {
				return err
			}
			var t0 time.Time
			if w.timed {
				t0 = time.Now()
			}
			first := r*nx + c
			if w.region.IsPoints() {
				w.qs = append(w.s.queries[:0], w.region.Points[r:min(r+rows, hi)]...)
				w.nbs = w.tree.KNearestBatchInto(w.qs, w.k, 1, w.s.nbs)
			} else {
				w.tile(r, min(r+rows, hi), c, min(c+width, nx))
			}
			if w.timed {
				w.search += time.Since(t0)
			}
			w.queries += int64(len(w.qs))
			if err := emit(first, w.qs, w.nbs); err != nil {
				return err
			}
		}
	}
	return nil
}

// tile fills w.qs and w.nbs for the region's rows [r0, r1) and columns
// [c0, c1) (region-relative; one row when the columns are a segment).
// Positions come from GridSpec.Point, row by row, the bits PointAt
// gives.
func (w *passWorker) tile(r0, r1, c0, c1 int) {
	reg, spec, k := w.region, w.spec, w.k
	_, ny, _ := reg.Dims()
	width := c1 - c0
	w.qs = w.s.queries[:(r1-r0)*width]
	w.nbs = w.s.nbs[:len(w.qs)*k]
	for r := r0; r < r1; r++ {
		j, kz := reg.J0+r%ny, reg.K0+r/ny
		row := w.qs[(r-r0)*width : (r-r0+1)*width]
		for i := range row {
			row[i] = spec.Point(reg.I0+c0+i, j, kz)
		}
	}
	// A patch is one plane's rows of the tile.
	for r := r0; r < r1; {
		end := min(r1, (r/ny+1)*ny)
		a, b := (r-r0)*width, (end-r0)*width
		w.candidates += int64(w.tree.KNearestPatchInto(w.qs[a:b], width, k, w.nbs[a*k:b*k], &w.s.block))
		r = end
	}
}

// passScratch is one pass worker's reusable state: a tile's positions
// and lists, and the candidate block.
type passScratch struct {
	queries []mathutil.Vec3
	nbs     []kdtree.Neighbor
	block   kdtree.Block
}

// passPool recycles passScratch sets across passes, so that a warm box
// query allocates no tile buffers. Like core's fused scratch pool it is
// a free list, not a sync.Pool, whose per-P slots miss when a worker
// moves to another P.
var passPool struct {
	mu   sync.Mutex
	free []*passScratch // most recently returned last
}

// getPassScratch returns the most recently pooled scratch set, or a new
// one, with room for a tile of n queries and their lists of k
// neighbours. Buffers grow to the largest tile asked for, no further:
// a box query's workers keep small tiles.
func getPassScratch(n, k int) *passScratch {
	var s *passScratch
	passPool.mu.Lock()
	if last := len(passPool.free) - 1; last >= 0 {
		s = passPool.free[last]
		passPool.free = passPool.free[:last]
	}
	passPool.mu.Unlock()
	if s == nil {
		s = &passScratch{}
	}
	if len(s.queries) < n {
		s.queries = make([]mathutil.Vec3, n)
	}
	if len(s.nbs) < n*k {
		s.nbs = make([]kdtree.Neighbor, n*k)
	}
	return s
}

// putPassScratch returns s to passPool, which keeps the
// 2·max(GOMAXPROCS, workers) most recently returned sets.
func putPassScratch(s *passScratch, workers int) {
	passPool.mu.Lock()
	defer passPool.mu.Unlock()
	passPool.free = append(passPool.free, s)
	if over := len(passPool.free) - 2*max(runtime.GOMAXPROCS(0), workers); over > 0 {
		passPool.free = slices.Delete(passPool.free, 0, over)
	}
}
