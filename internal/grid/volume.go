// Package grid implements the regular-grid volume substrate: the
// structured 3-D scalar fields that simulations emit, that the sampler
// decimates, and that every reconstructor must rebuild. It mirrors the
// VTK ImageData model (dims + origin + spacing + point data) that the
// paper's workflow stores as .vti files.
package grid

import (
	"fmt"
	"math"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
)

// Volume is a scalar field on a regular 3-D grid. Data is stored in VTK
// point order: x varies fastest, then y, then z, so
// Data[i + j*NX + k*NX*NY] is the value at grid index (i, j, k).
type Volume struct {
	// NX, NY, NZ are the point counts along each axis (all >= 1).
	NX, NY, NZ int
	// Origin is the world-space position of grid index (0, 0, 0).
	Origin mathutil.Vec3
	// Spacing is the world-space distance between adjacent points along
	// each axis (all components > 0).
	Spacing mathutil.Vec3
	// Data holds NX*NY*NZ scalar values in x-fastest order.
	Data []float64
}

// New allocates a zero-filled volume with unit spacing at the origin.
func New(nx, ny, nz int) *Volume {
	return NewWithGeometry(nx, ny, nz, mathutil.Vec3{}, mathutil.Vec3{X: 1, Y: 1, Z: 1})
}

// NewWithGeometry allocates a zero-filled volume with the given world
// placement. It panics if any dimension is < 1 or any spacing is <= 0;
// those are programming errors, not data errors.
func NewWithGeometry(nx, ny, nz int, origin, spacing mathutil.Vec3) *Volume {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("grid: invalid dims %dx%dx%d", nx, ny, nz))
	}
	if spacing.X <= 0 || spacing.Y <= 0 || spacing.Z <= 0 {
		panic(fmt.Sprintf("grid: invalid spacing %+v", spacing))
	}
	return &Volume{
		NX: nx, NY: ny, NZ: nz,
		Origin:  origin,
		Spacing: spacing,
		Data:    make([]float64, nx*ny*nz),
	}
}

// Len returns the number of grid points.
func (v *Volume) Len() int { return v.NX * v.NY * v.NZ }

// Index converts grid coordinates to the flat Data index.
func (v *Volume) Index(i, j, k int) int { return i + v.NX*(j+v.NY*k) }

// Coords converts a flat Data index back to grid coordinates.
func (v *Volume) Coords(idx int) (i, j, k int) {
	i = idx % v.NX
	j = (idx / v.NX) % v.NY
	k = idx / (v.NX * v.NY)
	return
}

// At returns the value at grid index (i, j, k).
func (v *Volume) At(i, j, k int) float64 { return v.Data[v.Index(i, j, k)] }

// Set stores a value at grid index (i, j, k).
func (v *Volume) Set(i, j, k int, x float64) { v.Data[v.Index(i, j, k)] = x }

// Point returns the world-space position of grid index (i, j, k).
func (v *Volume) Point(i, j, k int) mathutil.Vec3 {
	return mathutil.Vec3{
		X: v.Origin.X + float64(i)*v.Spacing.X,
		Y: v.Origin.Y + float64(j)*v.Spacing.Y,
		Z: v.Origin.Z + float64(k)*v.Spacing.Z,
	}
}

// PointAt returns the world-space position of a flat index.
func (v *Volume) PointAt(idx int) mathutil.Vec3 {
	i, j, k := v.Coords(idx)
	return v.Point(i, j, k)
}

// Bounds returns the world-space axis-aligned bounding box of the grid.
func (v *Volume) Bounds() mathutil.AABB {
	return mathutil.AABB{
		Min: v.Origin,
		Max: v.Point(v.NX-1, v.NY-1, v.NZ-1),
	}
}

// Clone returns a deep copy of the volume.
func (v *Volume) Clone() *Volume {
	out := &Volume{NX: v.NX, NY: v.NY, NZ: v.NZ, Origin: v.Origin, Spacing: v.Spacing}
	out.Data = make([]float64, len(v.Data))
	copy(out.Data, v.Data)
	return out
}

// SameGeometry reports whether two volumes share dims, origin, spacing.
func (v *Volume) SameGeometry(o *Volume) bool {
	return v.NX == o.NX && v.NY == o.NY && v.NZ == o.NZ &&
		v.Origin == o.Origin && v.Spacing == o.Spacing
}

// Fill evaluates f at every grid point in parallel and stores the result.
// f receives grid indices and the corresponding world position.
func (v *Volume) Fill(f func(i, j, k int, p mathutil.Vec3) float64) {
	parallel.For(v.NZ, 0, func(k int) {
		for j := 0; j < v.NY; j++ {
			base := v.Index(0, j, k)
			for i := 0; i < v.NX; i++ {
				v.Data[base+i] = f(i, j, k, v.Point(i, j, k))
			}
		}
	})
}

// statsBlock is the number of values each partial RunningStats of
// Stats covers. It is fixed, not derived from the worker count, so the
// merge tree, and with it every bit of the result, is the same on any
// host.
const statsBlock = 4096

// Stats computes min/max/mean/stddev over the whole field in parallel:
// fixed-size blocks are summarized concurrently and merged in index
// order, so the result does not depend on GOMAXPROCS.
func (v *Volume) Stats() *mathutil.RunningStats {
	n := len(v.Data)
	blocks := make([]mathutil.RunningStats, (n+statsBlock-1)/statsBlock)
	parallel.For(len(blocks), 0, func(b int) {
		blocks[b] = *mathutil.StatsOf(v.Data[b*statsBlock : min((b+1)*statsBlock, n)])
	})
	total := mathutil.NewRunningStats()
	for b := range blocks {
		total.Merge(&blocks[b])
	}
	return total
}

// TrilinearAt samples the field at an arbitrary world position using
// trilinear interpolation, clamping to the grid boundary. It is used by
// the resampler and by the cross-resolution experiments.
func (v *Volume) TrilinearAt(p mathutil.Vec3) float64 {
	fx := (p.X - v.Origin.X) / v.Spacing.X
	fy := (p.Y - v.Origin.Y) / v.Spacing.Y
	fz := (p.Z - v.Origin.Z) / v.Spacing.Z
	fx = mathutil.Clamp(fx, 0, float64(v.NX-1))
	fy = mathutil.Clamp(fy, 0, float64(v.NY-1))
	fz = mathutil.Clamp(fz, 0, float64(v.NZ-1))
	i0 := int(fx)
	j0 := int(fy)
	k0 := int(fz)
	i1, j1, k1 := i0+1, j0+1, k0+1
	if i1 > v.NX-1 {
		i1 = v.NX - 1
	}
	if j1 > v.NY-1 {
		j1 = v.NY - 1
	}
	if k1 > v.NZ-1 {
		k1 = v.NZ - 1
	}
	tx := fx - float64(i0)
	ty := fy - float64(j0)
	tz := fz - float64(k0)
	c000 := v.At(i0, j0, k0)
	c100 := v.At(i1, j0, k0)
	c010 := v.At(i0, j1, k0)
	c110 := v.At(i1, j1, k0)
	c001 := v.At(i0, j0, k1)
	c101 := v.At(i1, j0, k1)
	c011 := v.At(i0, j1, k1)
	c111 := v.At(i1, j1, k1)
	c00 := mathutil.Lerp(c000, c100, tx)
	c10 := mathutil.Lerp(c010, c110, tx)
	c01 := mathutil.Lerp(c001, c101, tx)
	c11 := mathutil.Lerp(c011, c111, tx)
	c0 := mathutil.Lerp(c00, c10, ty)
	c1 := mathutil.Lerp(c01, c11, ty)
	return mathutil.Lerp(c0, c1, tz)
}

// Resample evaluates the field by trilinear interpolation onto a new
// grid with the given dims, origin and spacing, in parallel.
func (v *Volume) Resample(nx, ny, nz int, origin, spacing mathutil.Vec3) *Volume {
	out := NewWithGeometry(nx, ny, nz, origin, spacing)
	out.Fill(func(_, _, _ int, p mathutil.Vec3) float64 {
		return v.TrilinearAt(p)
	})
	return out
}

// SliceZ extracts the k-th z-plane as a row-major [NY][NX] copy; used by
// the image renderer for Fig 2/3-style comparisons.
func (v *Volume) SliceZ(k int) [][]float64 {
	if k < 0 || k >= v.NZ {
		panic(fmt.Sprintf("grid: SliceZ index %d out of range [0,%d)", k, v.NZ))
	}
	rows := make([][]float64, v.NY)
	for j := 0; j < v.NY; j++ {
		row := make([]float64, v.NX)
		copy(row, v.Data[v.Index(0, j, k):v.Index(0, j, k)+v.NX])
		rows[j] = row
	}
	return rows
}

// MaxAbsDiff returns the largest absolute pointwise difference between
// two volumes with identical dims. It panics on a dimension mismatch.
func MaxAbsDiff(a, b *Volume) float64 {
	if a.Len() != b.Len() {
		panic("grid: MaxAbsDiff dimension mismatch")
	}
	m := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}
