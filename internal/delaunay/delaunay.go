// Package delaunay implements 3-D Delaunay tetrahedralization with
// barycentric linear interpolation — the "piecewise linear" baseline the
// paper identifies as the strongest rule-based reconstructor (its
// reference implementation used CGAL + OpenMP; this one is from-scratch
// Go). Construction is incremental Bowyer–Watson with visibility-walk
// point location; queries are read-only and safe to run from many
// goroutines, each holding its own Locator cursor.
//
// Scientific sample points sit on (subsets of) regular grids and are
// therefore massively cospherical; the builder applies a deterministic
// hash-based jitter, a tiny fraction of the bounding-box diagonal, to
// break ties (a standard symbolic-perturbation stand-in). The jittered
// coordinates are used consistently for location and interpolation, so
// the scheme stays self-consistent and the interpolation error it
// introduces is orders of magnitude below sampling error.
package delaunay

import (
	"errors"
	"fmt"
	"math"

	"fillvoid/internal/mathutil"
)

// Triangulation is an immutable (after Build) Delaunay tetrahedral mesh
// with one scalar value per vertex.
type Triangulation struct {
	// verts[0:4] are the enclosing super-tetrahedron corners; input
	// points follow in insertion order.
	verts  []mathutil.Vec3
	values []float64
	tets   []tet
	// firstLive is a tet index guaranteed alive, used to seed Locators.
	firstLive int32
	bounds    mathutil.AABB
}

// tet is one tetrahedron: vertex indices, neighbor tets (neighbor[i] is
// across the face opposite verts[i]; -1 = hull boundary), and a cached
// circumsphere for fast in-sphere tests.
type tet struct {
	verts    [4]int32
	neighbor [4]int32
	center   mathutil.Vec3
	r2       float64
	dead     bool
}

const noTet = int32(-1)

// Build triangulates the given points (len(points) == len(values),
// at least 4 non-degenerate points required). The inputs are copied.
// The returned mesh keeps only its live tetrahedra (see compact).
func Build(points []mathutil.Vec3, values []float64) (*Triangulation, error) {
	t, err := build(points, values)
	if err != nil {
		return nil, err
	}
	t.compact()
	return t, nil
}

// build is Build without the final compaction: every tetrahedron the
// insertions created stays in t.tets, the dead ones marked.
func build(points []mathutil.Vec3, values []float64) (*Triangulation, error) {
	if len(points) != len(values) {
		return nil, errors.New("delaunay: points/values length mismatch")
	}
	if len(points) < 4 {
		return nil, fmt.Errorf("delaunay: need >= 4 points, got %d", len(points))
	}

	bounds := mathutil.EmptyAABB()
	for _, p := range points {
		bounds = bounds.Extend(p)
	}
	diag := bounds.Size().Norm()
	if diag == 0 {
		return nil, errors.New("delaunay: all points coincide")
	}

	t := &Triangulation{
		bounds: bounds,
		verts:  make([]mathutil.Vec3, 0, len(points)+4),
		values: make([]float64, 0, len(points)+4),
	}

	// Super-tetrahedron comfortably containing the bounding box.
	c := bounds.Center()
	m := 20 * diag
	t.verts = append(t.verts,
		mathutil.Vec3{X: c.X - m, Y: c.Y - m, Z: c.Z - m},
		mathutil.Vec3{X: c.X + m, Y: c.Y - m, Z: c.Z - m},
		mathutil.Vec3{X: c.X, Y: c.Y + m, Z: c.Z - m},
		mathutil.Vec3{X: c.X, Y: c.Y, Z: c.Z + m},
	)
	t.values = append(t.values, 0, 0, 0, 0)

	// Deterministic jitter breaks the grid's cospherical degeneracies.
	jitter := diag * 1e-7
	for i, p := range points {
		t.verts = append(t.verts, jitterPoint(p, i, jitter))
		t.values = append(t.values, values[i])
	}

	root := t.newTet([4]int32{0, 1, 2, 3}, [4]int32{noTet, noTet, noTet, noTet})
	t.firstLive = root

	// Insert in a scrambled deterministic order: sequential insertion
	// of grid-ordered points makes the walk O(n^2); scrambling restores
	// the expected O(n log n).
	order := scrambledOrder(len(points))
	last := root
	for _, oi := range order {
		v := int32(oi + 4)
		var err error
		last, err = t.insert(v, last)
		if err != nil {
			return nil, err
		}
	}
	t.refreshFirstLive()
	return t, nil
}

// jitterPoint displaces p by a deterministic hash of its index.
func jitterPoint(p mathutil.Vec3, i int, scale float64) mathutil.Vec3 {
	h := uint64(i+1) * 0x9e3779b97f4a7c15
	f := func() float64 {
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		return (float64(h>>11)/float64(1<<53) - 0.5) * 2 * scale
	}
	return mathutil.Vec3{X: p.X + f(), Y: p.Y + f(), Z: p.Z + f()}
}

// scrambledOrder returns a deterministic pseudo-random permutation.
func scrambledOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := mathutil.NewRNG(0x5eed)
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// newTet appends a tetrahedron, normalizing to positive orientation,
// and returns its index.
func (t *Triangulation) newTet(v [4]int32, nb [4]int32) int32 {
	if orient3d(t.verts[v[0]], t.verts[v[1]], t.verts[v[2]], t.verts[v[3]]) < 0 {
		v[2], v[3] = v[3], v[2]
		nb[2], nb[3] = nb[3], nb[2]
	}
	center, r2 := circumsphere(t.verts[v[0]], t.verts[v[1]], t.verts[v[2]], t.verts[v[3]])
	t.tets = append(t.tets, tet{verts: v, neighbor: nb, center: center, r2: r2})
	return int32(len(t.tets) - 1)
}

// orient3d returns det[b-a, c-a, d-a]: positive when d lies on the
// positive side of plane (a,b,c).
func orient3d(a, b, c, d mathutil.Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a))
}

// circumsphere returns the circumcenter and squared circumradius of the
// tetrahedron (a,b,c,d). Degenerate (near-flat) tets get r2 = +Inf so
// that any subsequent insertion flushes them from the mesh.
func circumsphere(a, b, c, d mathutil.Vec3) (mathutil.Vec3, float64) {
	ab := b.Sub(a)
	ac := c.Sub(a)
	ad := d.Sub(a)
	det := ab.Dot(ac.Cross(ad))
	if math.Abs(det) < 1e-300 {
		return a, math.Inf(1)
	}
	ab2 := ab.Norm2()
	ac2 := ac.Norm2()
	ad2 := ad.Norm2()
	// center - a = (ab2*(ac x ad) + ac2*(ad x ab) + ad2*(ab x ac)) / (2 det)
	o := ac.Cross(ad).Scale(ab2).
		Add(ad.Cross(ab).Scale(ac2)).
		Add(ab.Cross(ac).Scale(ad2)).
		Scale(1 / (2 * det))
	return a.Add(o), o.Norm2()
}

// inSphere reports whether p lies strictly inside tet k's circumsphere,
// with a relative epsilon keeping boundary cases out of the cavity.
func (t *Triangulation) inSphere(k int32, p mathutil.Vec3) bool {
	tt := &t.tets[k]
	if math.IsInf(tt.r2, 1) {
		return true
	}
	return p.Dist2(tt.center) < tt.r2*(1-1e-12)
}

// insert adds vertex v to the triangulation, walking from tet hint to
// find the cavity. It returns one of the newly created tets as the next
// walk hint.
func (t *Triangulation) insert(v int32, hint int32) (int32, error) {
	p := t.verts[v]
	start, err := t.locate(p, hint)
	if err != nil {
		return noTet, err
	}

	// Grow the cavity: all tets whose circumsphere contains p.
	cavity := t.growCavity(start, p)

	// Collect boundary faces. A boundary face is a face of a cavity tet
	// whose neighbor is outside the cavity (or the hull).
	type boundaryFace struct {
		a, b, c int32 // face vertices
		outside int32 // neighbor tet beyond the face (noTet on hull)
	}
	var faces []boundaryFace
	for _, ci := range cavity {
		ct := &t.tets[ci]
		for f := 0; f < 4; f++ {
			nb := ct.neighbor[f]
			if nb != noTet && t.tets[nb].dead {
				continue // internal cavity face
			}
			// Face opposite vertex f.
			fa, fb, fc := faceOf(ct.verts, f)
			faces = append(faces, boundaryFace{fa, fb, fc, nb})
		}
	}

	// Retriangulate: one new tet per boundary face, joined at v.
	created := make([]int32, 0, len(faces))
	// faceKey → (tet, local face index) for stitching new tets together.
	open := make(map[[3]int32]faceRef, 3*len(faces))
	for _, bf := range faces {
		nt := t.newTet([4]int32{bf.a, bf.b, bf.c, v}, [4]int32{noTet, noTet, noTet, noTet})
		created = append(created, nt)
		// Wire the face shared with the outside world. After
		// normalization vertex order may have changed; find v's slot —
		// the face opposite v is the boundary face.
		vSlot := slotOf(t.tets[nt].verts, v)
		t.tets[nt].neighbor[vSlot] = bf.outside
		if bf.outside != noTet {
			// Point the outside tet back at the new tet.
			ot := &t.tets[bf.outside]
			oSlot := -1
			for f := 0; f < 4; f++ {
				oa, ob, oc := faceOf(ot.verts, f)
				if sameFace(oa, ob, oc, bf.a, bf.b, bf.c) {
					oSlot = f
					break
				}
			}
			if oSlot < 0 {
				return noTet, errors.New("delaunay: inconsistent cavity boundary")
			}
			ot.neighbor[oSlot] = nt
		}
		// Register the three internal faces (those touching v).
		for f := 0; f < 4; f++ {
			if f == vSlot {
				continue
			}
			fa, fb, fc := faceOf(t.tets[nt].verts, f)
			key := faceKey(fa, fb, fc)
			if other, ok := open[key]; ok {
				t.tets[nt].neighbor[f] = other.tet
				t.tets[other.tet].neighbor[other.face] = nt
				delete(open, key)
			} else {
				open[key] = faceRef{nt, int8(f)}
			}
		}
	}
	if len(open) != 0 {
		return noTet, errors.New("delaunay: cavity retriangulation left unmatched faces")
	}
	return created[0], nil
}

type faceRef struct {
	tet  int32
	face int8
}

// growCavity marks dead and returns all tets whose circumsphere
// contains p, reachable from start.
func (t *Triangulation) growCavity(start int32, p mathutil.Vec3) []int32 {
	cavity := []int32{start}
	t.tets[start].dead = true
	for qi := 0; qi < len(cavity); qi++ {
		ct := t.tets[cavity[qi]]
		for f := 0; f < 4; f++ {
			nb := ct.neighbor[f]
			if nb == noTet || t.tets[nb].dead {
				continue
			}
			if t.inSphere(nb, p) {
				t.tets[nb].dead = true
				cavity = append(cavity, nb)
			}
		}
	}
	return cavity
}

// faceOf returns the three vertices of the face opposite local vertex f.
func faceOf(v [4]int32, f int) (int32, int32, int32) {
	switch f {
	case 0:
		return v[1], v[2], v[3]
	case 1:
		return v[0], v[2], v[3]
	case 2:
		return v[0], v[1], v[3]
	default:
		return v[0], v[1], v[2]
	}
}

func slotOf(v [4]int32, x int32) int {
	for i := 0; i < 4; i++ {
		if v[i] == x {
			return i
		}
	}
	return -1
}

func faceKey(a, b, c int32) [3]int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}

func sameFace(a, b, c int32, x, y, z int32) bool {
	return faceKey(a, b, c) == faceKey(x, y, z)
}

// locate finds a live tet containing p by visibility walk from hint,
// falling back to an exhaustive scan if the walk cycles (degenerate
// numerics). Returns an error only if no tet contains p, which cannot
// happen inside the super-tetrahedron.
func (t *Triangulation) locate(p mathutil.Vec3, hint int32) (int32, error) {
	cur := hint
	if cur == noTet || t.tets[cur].dead {
		cur = t.findLive()
	}
	maxSteps := 4 * (len(t.tets) + 16)
	for step := 0; step < maxSteps; step++ {
		ct := &t.tets[cur]
		moved := false
		for f := 0; f < 4; f++ {
			fa, fb, fc := faceOf(ct.verts, f)
			a, b, c := t.verts[fa], t.verts[fb], t.verts[fc]
			op := t.verts[ct.verts[f]]
			sideP := orient3d(a, b, c, p)
			sideV := orient3d(a, b, c, op)
			// p beyond face f (strictly on the opposite side from the
			// tet's own fourth vertex) → cross to the neighbor.
			if sideV > 0 && sideP < 0 || sideV < 0 && sideP > 0 {
				nb := ct.neighbor[f]
				if nb == noTet {
					continue // outside hull along this face; try others
				}
				cur = nb
				moved = true
				break
			}
		}
		if !moved {
			return cur, nil
		}
	}
	// Walk cycled: exhaustive containment scan.
	for i := range t.tets {
		if t.tets[i].dead {
			continue
		}
		if t.contains(int32(i), p) {
			return int32(i), nil
		}
	}
	return noTet, errors.New("delaunay: point location failed")
}

// contains reports whether p is inside (or on) tet k.
func (t *Triangulation) contains(k int32, p mathutil.Vec3) bool {
	ct := &t.tets[k]
	for f := 0; f < 4; f++ {
		fa, fb, fc := faceOf(ct.verts, f)
		a, b, c := t.verts[fa], t.verts[fb], t.verts[fc]
		op := t.verts[ct.verts[f]]
		sideP := orient3d(a, b, c, p)
		sideV := orient3d(a, b, c, op)
		if sideV > 0 && sideP < 0 || sideV < 0 && sideP > 0 {
			return false
		}
	}
	return true
}

func (t *Triangulation) findLive() int32 {
	if t.firstLive != noTet && !t.tets[t.firstLive].dead {
		return t.firstLive
	}
	for i := range t.tets {
		if !t.tets[i].dead {
			t.firstLive = int32(i)
			return t.firstLive
		}
	}
	return noTet
}

func (t *Triangulation) refreshFirstLive() {
	t.firstLive = noTet
	t.findLive()
}

// compact drops the dead tetrahedra, which Bowyer–Watson leaves behind
// at every insertion (about three of every four a build creates), and
// releases their storage. The live ones keep their relative order, and
// the neighbour links and firstLive are remapped, so a locator walk
// visits the same tetrahedra and interpolates the same bits. A walk
// that does not cycle visits each live tetrahedron at most once, so the
// step limit, which shrinks with len(t.tets), still stops only cycling
// walks, and the exhaustive fallback scans the live tetrahedra in the
// same order as before.
func (t *Triangulation) compact() {
	remap := make([]int32, len(t.tets))
	live := int32(0)
	for i := range t.tets {
		remap[i] = noTet
		if !t.tets[i].dead {
			remap[i] = live
			live++
		}
	}
	tets := make([]tet, 0, live)
	for _, tt := range t.tets {
		if tt.dead {
			continue
		}
		for f, nb := range tt.neighbor {
			if nb != noTet {
				tt.neighbor[f] = remap[nb]
			}
		}
		tets = append(tets, tt)
	}
	t.tets = tets
	t.firstLive = remap[t.firstLive]
}

// Bytes estimates the heap the triangulation retains: vertices, values
// and tetrahedra (verts and neighbours, circumsphere and flag, padded to
// 72 bytes). recon.Plan.Stats counts it for a memoized mesh.
func (t *Triangulation) Bytes() int64 {
	const vertBytes, valueBytes, tetBytes = 24, 8, 72
	return int64(cap(t.verts))*vertBytes + int64(cap(t.values))*valueBytes + int64(cap(t.tets))*tetBytes
}

// NumTets returns the number of live tetrahedra (including those
// touching the super-tetrahedron corners).
func (t *Triangulation) NumTets() int {
	n := 0
	for i := range t.tets {
		if !t.tets[i].dead {
			n++
		}
	}
	return n
}

// NumVertices returns the number of input points.
func (t *Triangulation) NumVertices() int { return len(t.verts) - 4 }
