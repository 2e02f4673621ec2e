package delaunay

import (
	"math"

	"fillvoid/internal/mathutil"
)

// Locator is a point-location cursor over a finished triangulation.
// Walks are dramatically faster when successive queries are spatially
// coherent (e.g. scanning grid points in order), so each goroutine doing
// interpolation should hold its own Locator.
//
// A Locator keeps the products of the tet its last query answered in:
// the walk's face normals (walk) and the barycentric weights' cross
// products, 1/v6, hull flag and vertex values (bary). A query that stays
// in that tet — two in three grid nodes at 1 % sampling — costs four
// dot products to confirm it and three for the weights. The products
// are computed with barycentric's and orient3d's own expressions, so
// every answer has the bits computing them afresh gave.
type Locator struct {
	t    *Triangulation
	last int32
	walk walkCache
	bary tetWeights
}

// NewLocator returns a fresh cursor. Safe to create from any goroutine;
// the underlying triangulation is read-only.
func (t *Triangulation) NewLocator() *Locator {
	return &Locator{t: t, last: t.firstLive, walk: walkCache{k: noTet}, bary: tetWeights{k: noTet}}
}

// Interpolate evaluates the piecewise-linear interpolant at q. ok is
// false when q falls outside the convex hull of the input points (its
// containing tet touches a super-tetrahedron corner) or location fails;
// callers typically fall back to the nearest sample value there.
func (l *Locator) Interpolate(q mathutil.Vec3) (value float64, ok bool) {
	t := l.t
	k, err := t.locate(q, l.last, &l.walk)
	if err != nil || k == noTet {
		return 0, false
	}
	l.last = k
	b := &l.bary
	if b.k != k {
		b.k = k
		tt := &t.tets[k]
		// A super-tetrahedron corner: outside the input convex hull.
		b.hull = min(tt.verts[0], tt.verts[1], tt.verts[2], tt.verts[3]) < 4
		if !b.hull {
			b.set(t.verts[tt.verts[0]], t.verts[tt.verts[1]], t.verts[tt.verts[2]], t.verts[tt.verts[3]])
			for i, v := range tt.verts {
				b.vals[i] = t.values[v]
			}
		}
	}
	if b.hull {
		return 0, false
	}
	w, ok := b.weights(q)
	if !ok {
		return 0, false
	}
	value = w[0]*b.vals[0] +
		w[1]*b.vals[1] +
		w[2]*b.vals[2] +
		w[3]*b.vals[3]
	return value, true
}

// tetWeights holds what barycentric computes from a tet (a, b, c, d)
// alone, for tet k: the anchor a, the cross products (c−a)×(d−a),
// (d−a)×(b−a) and (b−a)×(c−a), and 1/v6 with v6 = (b−a)·((c−a)×(d−a));
// flat marks |v6| < 1e-300. Interpolate also keeps the tet's hull flag
// and vertex values in it.
type tetWeights struct {
	k          int32
	hull, flat bool
	a          mathutil.Vec3
	c1, c2, c3 mathutil.Vec3
	inv        float64
	vals       [4]float64
}

// set computes the products of tet (a, b, c, d).
func (p *tetWeights) set(a, b, c, d mathutil.Vec3) {
	vab := b.Sub(a)
	vac := c.Sub(a)
	vad := d.Sub(a)
	p.a = a
	p.c1 = vac.Cross(vad)
	p.c2 = vad.Cross(vab)
	p.c3 = vab.Cross(vac)
	v6 := vab.Dot(p.c1) // 6 * signed volume of the tet
	p.flat = math.Abs(v6) < 1e-300
	p.inv = 1 / v6
}

// weights returns the barycentric coordinates of q in the tet, clamped
// to [0,1] and renormalized to absorb the location tolerance. ok is
// false for a degenerate tetrahedron.
func (p *tetWeights) weights(q mathutil.Vec3) ([4]float64, bool) {
	if p.flat {
		return [4]float64{}, false
	}
	vap := q.Sub(p.a)
	var w [4]float64
	w[1] = vap.Dot(p.c1) * p.inv
	w[2] = vap.Dot(p.c2) * p.inv
	w[3] = vap.Dot(p.c3) * p.inv
	w[0] = 1 - w[1] - w[2] - w[3]
	sum := 0.0
	for i := range w {
		if w[i] < 0 {
			w[i] = 0
		}
		sum += w[i]
	}
	if sum <= 0 {
		return [4]float64{}, false
	}
	for i := range w {
		w[i] /= sum
	}
	return w, true
}

// barycentric returns the barycentric coordinates of q in tet (a,b,c,d),
// clamped to [0,1] and renormalized to absorb the location tolerance.
// ok is false for a degenerate tetrahedron.
func barycentric(a, b, c, d, q mathutil.Vec3) ([4]float64, bool) {
	var p tetWeights
	p.set(a, b, c, d)
	return p.weights(q)
}

// Validate checks structural invariants — mutual neighbor links, live
// tets having positive orientation, and (expensively, on small meshes)
// the Delaunay empty-circumsphere property within tolerance. It returns
// the number of live tets checked.
func (t *Triangulation) Validate(checkDelaunay bool) (int, error) {
	live := 0
	for i := range t.tets {
		tt := &t.tets[i]
		if tt.dead {
			continue
		}
		live++
		// Positive orientation.
		if orient3d(t.verts[tt.verts[0]], t.verts[tt.verts[1]],
			t.verts[tt.verts[2]], t.verts[tt.verts[3]]) < 0 {
			return live, errNegativeTet(i)
		}
		// Neighbor symmetry.
		for f := 0; f < 4; f++ {
			nb := tt.neighbor[f]
			if nb == noTet {
				continue
			}
			if t.tets[nb].dead {
				return live, errDeadNeighbor(i)
			}
			back := false
			for g := 0; g < 4; g++ {
				if t.tets[nb].neighbor[g] == int32(i) {
					back = true
					break
				}
			}
			if !back {
				return live, errAsymmetricLink(i)
			}
		}
	}
	if checkDelaunay {
		for i := range t.tets {
			tt := &t.tets[i]
			if tt.dead || math.IsInf(tt.r2, 1) {
				continue
			}
			tol := tt.r2 * 1e-9
			for v := 4; v < len(t.verts); v++ {
				if int32(v) == tt.verts[0] || int32(v) == tt.verts[1] ||
					int32(v) == tt.verts[2] || int32(v) == tt.verts[3] {
					continue
				}
				if t.verts[v].Dist2(tt.center) < tt.r2-tol {
					return live, errNotDelaunay(i, v)
				}
			}
		}
	}
	return live, nil
}

type validationError string

func (e validationError) Error() string { return string(e) }

func errNegativeTet(i int) error {
	return validationError("delaunay: tet has negative orientation")
}
func errDeadNeighbor(i int) error {
	return validationError("delaunay: live tet links to dead neighbor")
}
func errAsymmetricLink(i int) error {
	return validationError("delaunay: neighbor link not symmetric")
}
func errNotDelaunay(i, v int) error {
	return validationError("delaunay: circumsphere contains a foreign vertex")
}
