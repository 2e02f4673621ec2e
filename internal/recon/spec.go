// Package recon is the reconstruction engine every method in fillvoid
// runs through. It owns the three ideas the per-method code used to
// duplicate:
//
//   - Plan: everything derivable from a (cloud, GridSpec) pair alone —
//     validation, the k-d tree over the samples, the nearest-sample
//     table, value-range normalization stats, and memoized per-method
//     state (e.g. a Delaunay tetrahedralization). Built once, shared by
//     every reconstructor that runs against the pair, so a Fig 9-style
//     five-method comparison builds the spatial index once instead of
//     five times. Its neighbour pass (Plan.Neighbors) is the one place
//     a region's grid nodes are searched: the FCNN, Shepard, RBF and
//     nearest run on it. The full-grid nearest table is built only by
//     the queries that read it — NearestTable, full-grid NearestFor and
//     natural neighbour — and a full-grid pass fills it on the way, so
//     box and point-list queries never pay for one.
//   - Region: the query shape. Full grids, sub-grid boxes, and arbitrary
//     point lists all answer through the same engine entry points; the
//     full grid is just the degenerate region. This is the serving
//     primitive sharding and caching layers are built on: reconstruct
//     only where you need it.
//   - Registry: one name→reconstructor table for the neural model and
//     every rule-based baseline, subsuming the old interp.ByName and the
//     FCNN special cases that used to live in every caller.
//
// Execution is chunked and cancellable: reconstructors run over the grid
// in tiles (the neighbour pass, or parallel.ForChunkedCtx), honor
// context cancellation, and propagate worker errors early.
package recon

import (
	"errors"
	"fmt"
	"math"

	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
)

// GridSpec describes the output grid geometry a reconstruction fills.
type GridSpec struct {
	NX, NY, NZ      int
	Origin, Spacing mathutil.Vec3
}

// SpecOf extracts the spec of an existing volume (the usual case:
// reconstruct back onto the original simulation grid).
func SpecOf(v *grid.Volume) GridSpec {
	return GridSpec{NX: v.NX, NY: v.NY, NZ: v.NZ, Origin: v.Origin, Spacing: v.Spacing}
}

// NewVolume allocates a zeroed volume with this spec's geometry.
func (s GridSpec) NewVolume() *grid.Volume {
	return grid.NewWithGeometry(s.NX, s.NY, s.NZ, s.Origin, s.Spacing)
}

// Len returns the number of grid points in the spec.
func (s GridSpec) Len() int { return s.NX * s.NY * s.NZ }

// Point returns the world-space position of grid index (i, j, k),
// matching grid.Volume.Point exactly.
func (s GridSpec) Point(i, j, k int) mathutil.Vec3 {
	return mathutil.Vec3{
		X: s.Origin.X + float64(i)*s.Spacing.X,
		Y: s.Origin.Y + float64(j)*s.Spacing.Y,
		Z: s.Origin.Z + float64(k)*s.Spacing.Z,
	}
}

// NodeOf returns the grid index (i, j, k) whose Point equals p, and
// false when p is no grid node: the inverse of Point, for callers that
// must answer a query at a grid node with the grid's own arithmetic.
func (s GridSpec) NodeOf(p mathutil.Vec3) (i, j, k int, ok bool) {
	i, okX := axisNode(p.X, s.Origin.X, s.Spacing.X, s.NX)
	j, okY := axisNode(p.Y, s.Origin.Y, s.Spacing.Y, s.NY)
	k, okZ := axisNode(p.Z, s.Origin.Z, s.Spacing.Z, s.NZ)
	if !okX || !okY || !okZ {
		return 0, 0, 0, false
	}
	n := s.Point(i, j, k)
	//lint:allow floateq: a grid node is exactly the position Point computes; a near miss is an off-grid query
	return i, j, k, n.X == p.X && n.Y == p.Y && n.Z == p.Z
}

// axisNode rounds x to the nearest node index along one axis; NodeOf
// then confirms the candidate exactly.
func axisNode(x, origin, spacing float64, n int) (int, bool) {
	if n == 1 {
		return 0, true
	}
	f := math.Round((x - origin) / spacing)
	if !(f >= 0 && f < float64(n)) {
		return 0, false
	}
	return int(f), true
}

// Bounds returns the world-space bounding box of the grid, matching
// grid.Volume.Bounds exactly (position normalization depends on it).
func (s GridSpec) Bounds() mathutil.AABB {
	return mathutil.AABB{Min: s.Origin, Max: s.Point(s.NX-1, s.NY-1, s.NZ-1)}
}

// MinSpacing2 returns the squared smallest axis spacing; reconstructors
// derive their "grid node coincides with a sample" epsilon from it.
func (s GridSpec) MinSpacing2() float64 {
	m := s.Spacing.X
	if s.Spacing.Y < m {
		m = s.Spacing.Y
	}
	if s.Spacing.Z < m {
		m = s.Spacing.Z
	}
	return m * m
}

func (s GridSpec) validate() error {
	if s.NX < 1 || s.NY < 1 || s.NZ < 1 {
		return fmt.Errorf("recon: invalid grid spec %dx%dx%d", s.NX, s.NY, s.NZ)
	}
	return nil
}

// ErrEmptyCloud is returned when a plan is built over no samples.
var ErrEmptyCloud = errors.New("recon: point cloud is empty")

// Region selects where a reconstruction is evaluated: a sub-grid box of
// the plan's spec (half-open index ranges) or, when Points is non-nil,
// an arbitrary list of world-space query points. Full(spec) is the
// degenerate whole-grid box.
//
// Query ordering: box regions enumerate grid nodes x-fastest within the
// box (the same layout as grid.Volume restricted to the box); point
// regions follow the Points slice.
type Region struct {
	I0, J0, K0 int
	I1, J1, K1 int
	Points     []mathutil.Vec3
}

// Full returns the whole-grid region of a spec.
func Full(s GridSpec) Region {
	return Region{I1: s.NX, J1: s.NY, K1: s.NZ}
}

// Box returns the sub-grid region [i0,i1)×[j0,j1)×[k0,k1).
func Box(i0, j0, k0, i1, j1, k1 int) Region {
	return Region{I0: i0, J0: j0, K0: k0, I1: i1, J1: j1, K1: k1}
}

// PointList returns a region evaluating arbitrary world-space points.
func PointList(pts []mathutil.Vec3) Region { return Region{Points: pts} }

// IsPoints reports whether the region is a point-list query.
func (r Region) IsPoints() bool { return r.Points != nil }

// IsFull reports whether the region covers spec's whole grid.
func (r Region) IsFull(s GridSpec) bool {
	return !r.IsPoints() &&
		r.I0 == 0 && r.J0 == 0 && r.K0 == 0 &&
		r.I1 == s.NX && r.J1 == s.NY && r.K1 == s.NZ
}

// Dims returns the box extent (1×1×len(Points) for point lists, so a
// point query still has a defined "shape").
func (r Region) Dims() (nx, ny, nz int) {
	if r.IsPoints() {
		return len(r.Points), 1, 1
	}
	return r.I1 - r.I0, r.J1 - r.J0, r.K1 - r.K0
}

// Len returns the number of query locations.
func (r Region) Len() int {
	if r.IsPoints() {
		return len(r.Points)
	}
	nx, ny, nz := r.Dims()
	return nx * ny * nz
}

// Coords maps the n-th query of a box region to absolute grid coords.
func (r Region) Coords(n int) (i, j, k int) {
	w := r.I1 - r.I0
	h := r.J1 - r.J0
	return r.I0 + n%w, r.J0 + (n/w)%h, r.K0 + n/(w*h)
}

// GridIndex maps the n-th query of a box region to the flat index in
// the full spec grid.
func (r Region) GridIndex(s GridSpec, n int) int {
	i, j, k := r.Coords(n)
	return i + s.NX*(j+s.NY*k)
}

// PointAt returns the world-space position of the n-th query.
func (r Region) PointAt(s GridSpec, n int) mathutil.Vec3 {
	if r.IsPoints() {
		return r.Points[n]
	}
	i, j, k := r.Coords(n)
	return s.Point(i, j, k)
}

// Origin returns the world origin of the box region's output volume.
func (r Region) Origin(s GridSpec) mathutil.Vec3 {
	return s.Point(r.I0, r.J0, r.K0)
}

// Split cuts a box region into at most n contiguous slabs along its
// largest axis; ties prefer z, then y (z slabs are contiguous runs of
// the output array). Slab s covers [s·e/n, (s+1)·e/n) of the axis's
// extent e, so slab sizes differ by at most one. Every grid node of r
// lands in exactly one slab and the slabs ascend along the axis, so
// stitching their outputs back reproduces r's output exactly. Fewer
// than n slabs come back when the axis is shorter than n.
func (r Region) Split(n int) []Region {
	nx, ny, nz := r.Dims()
	axis, extent := 2, nz
	if ny > extent {
		axis, extent = 1, ny
	}
	if nx > extent {
		axis, extent = 0, nx
	}
	n = min(n, extent)
	if n <= 1 {
		return []Region{r}
	}
	slabs := make([]Region, n)
	for s := range slabs {
		lo, hi := s*extent/n, (s+1)*extent/n
		slab := r
		switch axis {
		case 0:
			slab.I0, slab.I1 = r.I0+lo, r.I0+hi
		case 1:
			slab.J0, slab.J1 = r.J0+lo, r.J0+hi
		default:
			slab.K0, slab.K1 = r.K0+lo, r.K0+hi
		}
		slabs[s] = slab
	}
	return slabs
}

// Validate checks the region against a spec.
func (r Region) Validate(s GridSpec) error {
	if r.IsPoints() {
		return nil
	}
	if r.I0 < 0 || r.J0 < 0 || r.K0 < 0 ||
		r.I1 > s.NX || r.J1 > s.NY || r.K1 > s.NZ ||
		r.I0 >= r.I1 || r.J0 >= r.J1 || r.K0 >= r.K1 {
		return fmt.Errorf("recon: region [%d,%d)x[%d,%d)x[%d,%d) outside grid %dx%dx%d",
			r.I0, r.I1, r.J0, r.J1, r.K0, r.K1, s.NX, s.NY, s.NZ)
	}
	return nil
}
