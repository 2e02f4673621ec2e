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
	// created counts the tetrahedra the insertions created, live and
	// dead, the super-tetrahedron included.
	created int
}

// tet is one tetrahedron: vertex indices, neighbor tets (neighbor[i] is
// across the face opposite verts[i]; -1 = hull boundary), a cached
// circumsphere for fast in-sphere tests, and the orientation byte
// (see orientation), which lives in what would otherwise be padding.
type tet struct {
	verts    [4]int32
	neighbor [4]int32
	center   mathutil.Vec3
	r2       float64
	dead     bool
	sides    uint8
}

// sidePos and sideNeg are the flags of face f in tet.sides: the tet's
// own vertex verts[f] lies strictly on the positive, or the negative,
// side of the face's plane; neither is set when orient3d gives 0 or NaN.
func sidePos(f int) uint8 { return 1 << f }
func sideNeg(f int) uint8 { return 16 << f }

// beyond reports whether a point whose orient3d against face f is sideP
// lies strictly on the other side of the face from the tet's own vertex
// verts[f].
func (tt *tet) beyond(f int, sideP float64) bool {
	return tt.sides&sidePos(f) != 0 && sideP < 0 || tt.sides&sideNeg(f) != 0 && sideP > 0
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
		// The insertions create about 23 (461 points) to 26 (156k
		// points) tetrahedra per point, dead ones included; one slice
		// sized for that spares the growth copies, and compact hands
		// the mesh a tight copy of the live ones.
		tets: make([]tet, 0, 27*len(points)+64),
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
	b := builder{walk: walkCache{k: noTet}}
	last := root
	for _, oi := range order {
		v := int32(oi + 4)
		var err error
		last, err = t.insert(&b, v, last)
		if err != nil {
			return nil, err
		}
	}
	t.created = len(t.tets)
	t.refreshFirstLive()
	return t, nil
}

// builder is the scratch of one insertion — the walk's normals, the
// cavity, its boundary faces and the new tets' open faces — kept for
// the next, so an insertion allocates nothing. It belongs to build
// alone; the finished mesh keeps none of it.
type builder struct {
	walk   walkCache
	cavity []int32
	faces  []boundaryFace
	open   []openFace
}

// boundaryFace is a face of the cavity's surface: its vertices, the
// cavity tet it belongs to, and the tet beyond it (noTet on the hull).
type boundaryFace struct {
	a, b, c int32
	inside  int32
	outside int32
}

// openFace is an internal face of the retriangulated cavity whose
// second tet has not been created yet.
type openFace struct {
	key  [3]int32 // faceKey of its vertices
	tet  int32
	face int8
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
	t.tets = append(t.tets, tet{verts: v, neighbor: nb, center: center, r2: r2, sides: t.orientation(v)})
	return int32(len(t.tets) - 1)
}

// orientation returns the sides byte of a tet with vertices v: for each
// face f, the sign of orient3d(face f, v[f]), the test a walk makes of
// the tet's own vertex against each face. A tet's vertices never change
// after newTet, so the byte holds what evaluating orient3d at every
// walk step would give.
func (t *Triangulation) orientation(v [4]int32) uint8 {
	var s uint8
	for f := 0; f < 4; f++ {
		fa, fb, fc := faceOf(v, f)
		o := orient3d(t.verts[fa], t.verts[fb], t.verts[fc], t.verts[v[f]])
		if o > 0 {
			s |= sidePos(f)
		} else if o < 0 {
			s |= sideNeg(f)
		}
	}
	return s
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
// find the cavity, on b's scratch. It returns one of the newly created
// tets as the next walk hint.
//
// The tets it creates, their order and their vertex order depend only
// on the order of the boundary faces, one new tet each. The open-face
// list holds at most one entry per face, since a match removes it, so
// each scan finds the face's one partner, whatever the list's order;
// reusing b's slices changes none of this.
func (t *Triangulation) insert(b *builder, v int32, hint int32) (int32, error) {
	p := t.verts[v]
	start, err := t.locate(p, hint, &b.walk)
	if err != nil {
		return noTet, err
	}

	// Grow the cavity: all tets whose circumsphere contains p.
	t.growCavity(b, start, p)

	// Collect boundary faces. A boundary face is a face of a cavity tet
	// whose neighbor is outside the cavity (or the hull).
	b.faces = b.faces[:0]
	for _, ci := range b.cavity {
		ct := &t.tets[ci]
		for f := 0; f < 4; f++ {
			nb := ct.neighbor[f]
			if nb != noTet && t.tets[nb].dead {
				continue // internal cavity face
			}
			// Face opposite vertex f.
			fa, fb, fc := faceOf(ct.verts, f)
			b.faces = append(b.faces, boundaryFace{fa, fb, fc, ci, nb})
		}
	}

	// Retriangulate: one new tet per boundary face, joined at v.
	first := int32(len(t.tets))
	b.open = b.open[:0]
	for _, bf := range b.faces {
		nt := t.newTet([4]int32{bf.a, bf.b, bf.c, v}, [4]int32{noTet, noTet, noTet, noTet})
		// Wire the face shared with the outside world. After
		// normalization vertex order may have changed; find v's slot —
		// the face opposite v is the boundary face.
		vSlot := slotOf(t.tets[nt].verts, v)
		t.tets[nt].neighbor[vSlot] = bf.outside
		if bf.outside != noTet {
			// Point the outside tet back at the new tet. Links are
			// symmetric and two tets share at most one face, so the
			// slot holding the cavity tet is the shared face's.
			ot := &t.tets[bf.outside]
			oSlot := slotOf(ot.neighbor, bf.inside)
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
			o := len(b.open) - 1
			for o >= 0 && b.open[o].key != key {
				o--
			}
			if o < 0 {
				b.open = append(b.open, openFace{key, nt, int8(f)})
				continue
			}
			other := b.open[o]
			t.tets[nt].neighbor[f] = other.tet
			t.tets[other.tet].neighbor[other.face] = nt
			last := len(b.open) - 1
			b.open[o] = b.open[last]
			b.open = b.open[:last]
		}
	}
	if len(b.open) != 0 {
		return noTet, errors.New("delaunay: cavity retriangulation left unmatched faces")
	}
	return first, nil
}

// growCavity marks dead and collects into b.cavity all tets whose
// circumsphere contains p, reachable from start.
func (t *Triangulation) growCavity(b *builder, start int32, p mathutil.Vec3) {
	b.cavity = append(b.cavity[:0], start)
	t.tets[start].dead = true
	for qi := 0; qi < len(b.cavity); qi++ {
		ct := &t.tets[b.cavity[qi]]
		for f := 0; f < 4; f++ {
			nb := ct.neighbor[f]
			if nb == noTet || t.tets[nb].dead {
				continue
			}
			if t.inSphere(nb, p) {
				t.tets[nb].dead = true
				b.cavity = append(b.cavity, nb)
			}
		}
	}
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

// locate finds a live tet containing p by visibility walk from hint,
// falling back to an exhaustive scan if the walk cycles (degenerate
// numerics). Returns an error only if no tet contains p, which cannot
// happen inside the super-tetrahedron. It is the one walk: the build's
// insertions and every Locator run it, on compacted meshes or not.
//
// Per tet it visits it tests the faces in order and crosses the first
// one p lies strictly beyond. That test compares orient3d(face, p),
// sideP, against orient3d(face, opposite vertex), sideV; sideV is the
// tet's sides byte, and sideP is n·(p−a) with the face normal
// n = (b−a)×(c−a) and anchor a: orient3d's own operations on the same
// operands in the same order. When the tet is the one c holds the
// normals of, they come from c instead of being recomputed. Every
// decision, and so the answer, is the one computing both orient3d
// values afresh gave. On return (other than by the exhaustive scan)
// c holds the normals of the returned tet.
func (t *Triangulation) locate(p mathutil.Vec3, hint int32, c *walkCache) (int32, error) {
	cur := hint
	if cur == noTet || t.tets[cur].dead {
		cur = t.findLive()
	}
	maxSteps := 4 * (len(t.tets) + 16)
	for step := 0; step < maxSteps; step++ {
		c.steps++
		ct := &t.tets[cur]
		cached := cur == c.k
		fn := &c.fn[c.at]
		if !cached {
			fn = &c.fn[1-c.at]
		}
		moved := false
		for f := 0; f < 4; f++ {
			if !cached {
				fa, fb, fc := faceOf(ct.verts, f)
				a := t.verts[fa]
				fn.n[f], fn.a[f] = t.verts[fb].Sub(a).Cross(t.verts[fc].Sub(a)), a
			}
			// p beyond face f → cross to the neighbor.
			if ct.beyond(f, fn.side(f, p)) {
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
			if !cached {
				// All four faces were tested, so fn holds them all.
				c.k, c.at = cur, 1-c.at
			}
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

// walkCache holds the face normals of the tet a walk last ended in,
// tet k (noTet before the first walk), in fn[at]; a walk fills fn[1−at]
// for the tets it computes afresh. A tet's vertices never change, so
// the normals stay valid while the cache lives: the build's cache sees
// no compaction, and a Locator's starts empty on a finished mesh.
// steps counts the tets the walks visited.
type walkCache struct {
	k     int32
	at    int
	fn    [2]faceNormals
	steps int64
}

// faceNormals are a tet's four face normals (b−a)×(c−a), for each
// face's vertices (a, b, c) in faceOf order, and their anchors a.
type faceNormals struct {
	n, a [4]mathutil.Vec3
}

// side returns n·(p−a) for face f: orient3d(a, b, c, p), with its
// operations on the same operands in the same order.
func (fn *faceNormals) side(f int, p mathutil.Vec3) float64 {
	return fn.n[f].Dot(p.Sub(fn.a[f]))
}

// contains reports whether p is inside (or on) tet k.
func (t *Triangulation) contains(k int32, p mathutil.Vec3) bool {
	ct := &t.tets[k]
	for f := 0; f < 4; f++ {
		fa, fb, fc := faceOf(ct.verts, f)
		if ct.beyond(f, orient3d(t.verts[fa], t.verts[fb], t.verts[fc], p)) {
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

// TetsCreated returns how many tetrahedra the build's insertions
// created, the dead ones included: the build's work, where NumTets is
// its result.
func (t *Triangulation) TetsCreated() int { return t.created }

// NumVertices returns the number of input points.
func (t *Triangulation) NumVertices() int { return len(t.verts) - 4 }
