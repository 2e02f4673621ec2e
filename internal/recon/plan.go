package recon

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/telemetry"
)

// Plan caches everything derivable from a (cloud, GridSpec) pair so that
// running several reconstructors over the same sampled cloud shares the
// expensive parts: the k-d tree over the samples, the per-grid-node
// nearest-sample table, value-range stats, and per-method memoized state
// (e.g. a Delaunay tetrahedralization).
//
// Neighbors is the one place a region's grid nodes are searched: the
// FCNN, Shepard, RBF and NearestFor run on it. It answers grid regions
// brick by brick from candidate blocks gathered around each brick, and
// point lists with the tree search; the pass holds no per-grid storage,
// only pooled per-worker tile buffers (see neighbors.go). The nearest
// table costs 12 bytes per grid node for as long as the plan lives, so
// only the queries that need every node's nearest sample build it:
// NearestTable itself, NearestFor on the full grid, and natural
// neighbour, whose scatter reads the whole grid. A full-grid Neighbors
// pass with k >= 2 fills the table on the way when the plan has none,
// so a Fig 9-style run searches the grid once for both. FCNN, Shepard,
// RBF and nearest box and point-list queries leave the plan without
// one.
//
// A Plan is immutable after NewPlan and safe for concurrent use; the
// lazily built pieces are guarded by sync.Once.
type Plan struct {
	cloud *pointcloud.Cloud
	spec  GridSpec

	treeOnce  sync.Once
	treeBuilt atomic.Bool
	tree      *kdtree.Tree

	nearOnce  sync.Once
	nearBuilt atomic.Bool
	nearIdx   []int32   // nearest sample index per full-grid node
	nearD2    []float64 // squared distance to it

	rangeOnce      sync.Once
	valMin, valMax float64

	memoMu sync.Mutex
	memo   map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	val  any
	err  error
	// bytes is the size val reports once built (see Stats), 0 for
	// values that do not report one.
	bytes atomic.Int64
}

// NewPlan validates the pair and returns a plan. The heavy pieces (tree,
// nearest table) are built lazily on first use, so a plan is cheap until
// a reconstructor actually needs them.
func NewPlan(c *pointcloud.Cloud, spec GridSpec) (*Plan, error) {
	_, sp := telemetry.Default().Start(context.TODO(), "recon/plan-build")
	defer sp.End()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Len() == 0 {
		return nil, ErrEmptyCloud
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &Plan{cloud: c, spec: spec}, nil
}

// Cloud returns the validated sample cloud the plan was built over.
func (p *Plan) Cloud() *pointcloud.Cloud { return p.cloud }

// Spec returns the output grid geometry.
func (p *Plan) Spec() GridSpec { return p.spec }

// Tree returns the shared k-d tree over the sample points, building it
// on first call.
func (p *Plan) Tree() *kdtree.Tree {
	p.treeOnce.Do(func() {
		p.tree = kdtree.Build(p.cloud.Points)
		p.treeBuilt.Store(true)
	})
	return p.tree
}

// ValueRange returns the min/max of the sample values (cached).
func (p *Plan) ValueRange() (lo, hi float64) {
	p.rangeOnce.Do(func() {
		p.valMin, p.valMax = p.cloud.ValueRange()
	})
	return p.valMin, p.valMax
}

// NearestOf resolves q's nearest sample from its canonical k-NN list
// nbs, which must hold at least two entries: the first neighbour when it
// is strictly closer than the second, else the tree's Nearest. The
// nearest table holds exactly this answer for every grid node.
func (p *Plan) NearestOf(q mathutil.Vec3, nbs []kdtree.Neighbor) (int, float64) {
	// Sample coordinates are finite (pointcloud.Cloud.Validate), so the
	// canonical order gives nbs[0].Dist2 <= nbs[1].Dist2 and "not equal"
	// is "strictly below". Only at an exact tie may the canonical first
	// (the lower index) differ from the sample Nearest's descent keeps,
	// which the pinned nearest, natural and linear outputs rest on.
	//lint:allow floateq: an exact tie between the two nearest samples is the one case where the canonical order and Nearest may disagree
	if nbs[1].Dist2 == nbs[0].Dist2 {
		return p.Tree().Nearest(q)
	}
	return nbs[0].Index, nbs[0].Dist2
}

// NearestTable returns the full-grid nearest-sample table: for every
// grid node, the index of the closest sample and the squared distance to
// it, as NearestOf resolves them. When the plan has none it runs a
// Neighbors pass at k = 2 with the given worker count; later calls (any
// worker count) return the cached slices. Callers must not mutate them.
func (p *Plan) NearestTable(workers int) (idx []int32, d2 []float64) {
	p.nearOnce.Do(func() {
		n := p.spec.Len()
		idx, d2 := make([]int32, n), make([]float64, n)
		//lint:allow errdrop: a pass with no visitor under a background context cannot fail
		_ = p.pass(context.Background(), Full(p.spec), 2, workers, nil, idx, d2)
		p.setNearest(idx, d2)
	})
	return p.nearIdx, p.nearD2
}

// setNearest publishes a complete nearest table; callers run it inside
// p.nearOnce.
func (p *Plan) setNearest(idx []int32, d2 []float64) {
	p.nearIdx, p.nearD2 = idx, d2
	p.nearBuilt.Store(true)
}

// NearestFor returns nearest-sample indices and squared distances for
// every query in region, in region order. The full grid is a copy of
// the nearest table (built when the plan has none); boxes and point
// lists run a k = 2 Neighbors pass and resolve each list with
// NearestOf, so they match the table bit for bit without reading or
// building it.
func (p *Plan) NearestFor(ctx context.Context, region Region, workers int) (idx []int32, d2 []float64, err error) {
	if region.IsFull(p.spec) {
		fullIdx, fullD2 := p.NearestTable(workers)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return slices.Clone(fullIdx), slices.Clone(fullD2), nil
	}
	n := region.Len()
	idx, d2 = make([]int32, n), make([]float64, n)
	err = p.Neighbors(ctx, region, 2, workers, func(_, first int, queries []mathutil.Vec3, nbs []kdtree.Neighbor) error {
		for i, q := range queries {
			j, d := p.NearestOf(q, nbs[2*i:2*i+2])
			idx[first+i], d2[first+i] = int32(j), d
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return idx, d2, nil
}

// Memo returns per-plan memoized state for key, building it at most once
// via build. Reconstructors use it for state derivable from the plan but
// specific to a method (e.g. "delaunay" for the tetrahedralization), so
// repeated runs and region queries against one plan share it. A value
// with a Bytes() int64 method reports its retained size, which Stats
// counts.
func (p *Plan) Memo(key string, build func() (any, error)) (any, error) {
	p.memoMu.Lock()
	if p.memo == nil {
		p.memo = make(map[string]*memoEntry)
	}
	e, ok := p.memo[key]
	if !ok {
		e = &memoEntry{}
		p.memo[key] = e
	}
	p.memoMu.Unlock()
	e.once.Do(func() {
		e.val, e.err = build()
		if s, ok := e.val.(interface{ Bytes() int64 }); ok && e.err == nil {
			e.bytes.Store(s.Bytes())
		}
	})
	return e.val, e.err
}
