package recon

import (
	"context"
	"sync"
	"sync/atomic"

	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/telemetry"
)

// Plan caches everything derivable from a (cloud, GridSpec) pair so that
// running several reconstructors over the same sampled cloud shares the
// expensive parts: the k-d tree over the samples, the per-grid-node
// nearest-sample table, value-range stats, and per-method memoized state
// (e.g. a Delaunay tetrahedralization).
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

// NearestTable returns the full-grid nearest-sample table: for every
// grid node, the index of the closest sample and the squared distance to
// it. Built once with the given worker count and cached; subsequent
// calls (any worker count) return the cached slices. Callers must not
// mutate them.
func (p *Plan) NearestTable(workers int) (idx []int32, d2 []float64) {
	p.nearOnce.Do(func() {
		tree := p.Tree()
		n := p.spec.Len()
		p.nearIdx = make([]int32, n)
		p.nearD2 = make([]float64, n)
		spec := p.spec
		tree.NearestBulk(n, workers, func(m int) mathutil.Vec3 {
			nx := spec.NX
			i := m % nx
			j := (m / nx) % spec.NY
			k := m / (nx * spec.NY)
			return spec.Point(i, j, k)
		}, p.nearIdx, p.nearD2)
		p.nearBuilt.Store(true)
	})
	return p.nearIdx, p.nearD2
}

// NearestFor returns nearest-sample indices and squared distances for
// every query in region, in region order. For box regions it slices out
// of the cached full-grid table (building it if needed); point-list
// regions are answered directly against the tree.
func (p *Plan) NearestFor(ctx context.Context, region Region, workers int) (idx []int32, d2 []float64, err error) {
	n := region.Len()
	idx = make([]int32, n)
	d2 = make([]float64, n)
	if region.IsPoints() {
		tree := p.Tree()
		pts := region.Points
		err = parallel.ForCtx(ctx, n, workers, func(m int) error {
			bi, bd2 := tree.Nearest(pts[m])
			idx[m] = int32(bi)
			d2[m] = bd2
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return idx, d2, nil
	}
	fullIdx, fullD2 := p.NearestTable(workers)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	spec := p.spec
	for m := 0; m < n; m++ {
		g := region.GridIndex(spec, m)
		idx[m] = fullIdx[g]
		d2[m] = fullD2[g]
	}
	return idx, d2, nil
}

// Memo returns per-plan memoized state for key, building it at most once
// via build. Reconstructors use it for state derivable from the plan but
// specific to a method (e.g. "delaunay" for the tetrahedralization), so
// repeated runs and region queries against one plan share it.
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
	})
	return e.val, e.err
}
