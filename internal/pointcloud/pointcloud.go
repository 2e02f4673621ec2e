// Package pointcloud defines the unstructured sampled dataset: the
// output of the in situ sampler and the input of every reconstructor.
// It mirrors the VTK PolyData model (points + a scalar array) that the
// paper's workflow stores as .vtp files.
package pointcloud

import (
	"errors"
	"fmt"
	"math"

	"fillvoid/internal/mathutil"
)

// Cloud is a set of sampled points with one scalar value per point.
// Points and Values always have equal length.
type Cloud struct {
	Points []mathutil.Vec3
	Values []float64
	// Name labels the scalar attribute (e.g. "pressure", "mixfrac").
	Name string
}

// New returns an empty cloud with the given attribute name and capacity.
func New(name string, capacity int) *Cloud {
	return &Cloud{
		Points: make([]mathutil.Vec3, 0, capacity),
		Values: make([]float64, 0, capacity),
		Name:   name,
	}
}

// Len returns the number of sampled points.
func (c *Cloud) Len() int { return len(c.Points) }

// Add appends one sampled point.
func (c *Cloud) Add(p mathutil.Vec3, v float64) {
	c.Points = append(c.Points, p)
	c.Values = append(c.Values, v)
}

// Bounds returns the axis-aligned bounding box of the points; an empty
// cloud yields mathutil.EmptyAABB().
func (c *Cloud) Bounds() mathutil.AABB {
	b := mathutil.EmptyAABB()
	for _, p := range c.Points {
		b = b.Extend(p)
	}
	return b
}

// ValueRange returns the min and max scalar value (0, 0 when empty).
func (c *Cloud) ValueRange() (lo, hi float64) {
	if c.Len() == 0 {
		return 0, 0
	}
	lo, hi = c.Values[0], c.Values[0]
	for _, v := range c.Values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Merge returns a new cloud containing the points of c followed by the
// points of o. The attribute names must match; the paper's 1%+5%
// combined training set (Fig 7) is built with this.
func (c *Cloud) Merge(o *Cloud) (*Cloud, error) {
	if c.Name != o.Name {
		return nil, fmt.Errorf("pointcloud: merging %q with %q", c.Name, o.Name)
	}
	out := New(c.Name, c.Len()+o.Len())
	out.Points = append(append(out.Points, c.Points...), o.Points...)
	out.Values = append(append(out.Values, c.Values...), o.Values...)
	return out, nil
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := New(c.Name, c.Len())
	out.Points = append(out.Points, c.Points...)
	out.Values = append(out.Values, c.Values...)
	return out
}

// Validate checks the invariants every consumer relies on: parallel
// slices, and finite coordinates. A NaN or ±Inf coordinate breaks every
// spatial search over the cloud (a k-d tree built over it answers wrong
// neighbours for other, finite queries), so the error names the first
// such point. Values are not checked. It returns nil for a healthy
// cloud.
func (c *Cloud) Validate() error {
	if len(c.Points) != len(c.Values) {
		return errors.New("pointcloud: points/values length mismatch")
	}
	for i, p := range c.Points {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("pointcloud: point %d has a non-finite coordinate (%g, %g, %g)", i, p.X, p.Y, p.Z)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Subsample returns a cloud containing every point whose index i
// satisfies keep(i); used for training-set reduction experiments.
func (c *Cloud) Subsample(keep func(i int) bool) *Cloud {
	out := New(c.Name, 0)
	for i := range c.Points {
		if keep(i) {
			out.Add(c.Points[i], c.Values[i])
		}
	}
	return out
}
