package delaunay

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"fillvoid/internal/mathutil"
)

func randomPoints(n int, seed int64) ([]mathutil.Vec3, []float64) {
	rng := mathutil.NewRNG(seed)
	pts := make([]mathutil.Vec3, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = mathutil.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		vals[i] = rng.NormFloat64()
	}
	return pts, vals
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(make([]mathutil.Vec3, 3), make([]float64, 3)); err == nil {
		t.Fatal("expected error for < 4 points")
	}
	if _, err := Build(make([]mathutil.Vec3, 5), make([]float64, 4)); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	same := make([]mathutil.Vec3, 10)
	if _, err := Build(same, make([]float64, 10)); err == nil {
		t.Fatal("expected error for coincident points")
	}
}

func TestStructuralInvariantsRandom(t *testing.T) {
	for _, n := range []int{4, 10, 50, 200, 1000} {
		pts, vals := randomPoints(n, int64(n))
		tri, err := Build(pts, vals)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := tri.NumVertices(); got != n {
			t.Fatalf("n=%d: NumVertices=%d", n, got)
		}
		if _, err := tri.Validate(n <= 200); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestStructuralInvariantsGrid(t *testing.T) {
	// Regular-grid points are maximally degenerate (cospherical
	// everywhere); the jitter must keep the build healthy.
	var pts []mathutil.Vec3
	var vals []float64
	for k := 0; k < 5; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 7; i++ {
				pts = append(pts, mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
				vals = append(vals, float64(i+j+k))
			}
		}
	}
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tri.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// A linear field must be reproduced exactly (up to jitter) by the
// piecewise-linear interpolant at any point inside the convex hull.
func TestLinearFieldReproduction(t *testing.T) {
	lin := func(p mathutil.Vec3) float64 { return 3*p.X - 2*p.Y + 0.5*p.Z + 7 }
	pts, _ := randomPoints(500, 42)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = lin(p)
	}
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	loc := tri.NewLocator()
	rng := mathutil.NewRNG(7)
	checked := 0
	for i := 0; i < 2000; i++ {
		// Interior queries: stay away from the hull boundary.
		q := mathutil.Vec3{
			X: 0.2 + 0.6*rng.Float64(),
			Y: 0.2 + 0.6*rng.Float64(),
			Z: 0.2 + 0.6*rng.Float64(),
		}
		got, ok := loc.Interpolate(q)
		if !ok {
			continue // can land outside the hull of the random points
		}
		checked++
		if math.Abs(got-lin(q)) > 1e-4 {
			t.Fatalf("query %v: got %g want %g", q, got, lin(q))
		}
	}
	if checked < 1500 {
		t.Fatalf("only %d/2000 queries landed inside the hull", checked)
	}
}

func TestInterpolateOutsideHull(t *testing.T) {
	pts, vals := randomPoints(100, 3)
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	loc := tri.NewLocator()
	if _, ok := loc.Interpolate(mathutil.Vec3{X: 50, Y: 50, Z: 50}); ok {
		t.Fatal("expected ok=false far outside the hull")
	}
}

// Property: interpolation never extrapolates — the interpolated value
// lies within [min, max] of the vertex values (convexity of barycentric
// weights after clamping).
func TestInterpolationConvexHullProperty(t *testing.T) {
	pts, vals := randomPoints(300, 11)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y, z float64) bool {
		q := mathutil.Vec3{
			X: mathutil.Clamp(math.Abs(x)-math.Floor(math.Abs(x)), 0, 1),
			Y: mathutil.Clamp(math.Abs(y)-math.Floor(math.Abs(y)), 0, 1),
			Z: mathutil.Clamp(math.Abs(z)-math.Floor(math.Abs(z)), 0, 1),
		}
		loc := tri.NewLocator()
		got, ok := loc.Interpolate(q)
		if !ok {
			return true
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBarycentricAtVertices(t *testing.T) {
	a := mathutil.Vec3{X: 0, Y: 0, Z: 0}
	b := mathutil.Vec3{X: 1, Y: 0, Z: 0}
	c := mathutil.Vec3{X: 0, Y: 1, Z: 0}
	d := mathutil.Vec3{X: 0, Y: 0, Z: 1}
	for i, q := range []mathutil.Vec3{a, b, c, d} {
		w, ok := barycentric(a, b, c, d, q)
		if !ok {
			t.Fatalf("vertex %d: degenerate", i)
		}
		for j := range w {
			want := 0.0
			if j == i {
				want = 1.0
			}
			if math.Abs(w[j]-want) > 1e-12 {
				t.Fatalf("vertex %d: w=%v", i, w)
			}
		}
	}
	// Centroid has equal weights.
	q := a.Add(b).Add(c).Add(d).Scale(0.25)
	w, _ := barycentric(a, b, c, d, q)
	for _, wi := range w {
		if math.Abs(wi-0.25) > 1e-12 {
			t.Fatalf("centroid weights %v", w)
		}
	}
}

func TestBarycentricDegenerate(t *testing.T) {
	a := mathutil.Vec3{}
	if _, ok := barycentric(a, a, a, a, a); ok {
		t.Fatal("expected degenerate tet to fail")
	}
}

func TestClusteredPoints(t *testing.T) {
	// Tight clusters with huge empty space between them stress the
	// walk and the cavity logic.
	rng := mathutil.NewRNG(99)
	var pts []mathutil.Vec3
	var vals []float64
	centers := []mathutil.Vec3{{X: 0, Y: 0, Z: 0}, {X: 100, Y: 0, Z: 0}, {X: 50, Y: 80, Z: 40}}
	for _, c := range centers {
		for i := 0; i < 80; i++ {
			pts = append(pts, mathutil.Vec3{
				X: c.X + rng.NormFloat64()*0.01,
				Y: c.Y + rng.NormFloat64()*0.01,
				Z: c.Z + rng.NormFloat64()*0.01,
			})
			vals = append(vals, c.X)
		}
	}
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tri.Validate(false); err != nil {
		t.Fatal(err)
	}
	// Interpolating at a cluster center returns ~the cluster value.
	loc := tri.NewLocator()
	for _, c := range centers {
		v, ok := loc.Interpolate(c)
		if !ok {
			continue
		}
		if math.Abs(v-c.X) > 1 {
			t.Fatalf("cluster at %v interpolates to %g", c, v)
		}
	}
}

func TestCollinearAndCoplanarInput(t *testing.T) {
	// Perfectly collinear / coplanar inputs are degenerate without
	// jitter; the builder must survive them.
	var pts []mathutil.Vec3
	var vals []float64
	for i := 0; i < 30; i++ {
		pts = append(pts, mathutil.Vec3{X: float64(i), Y: 0, Z: 0})
		vals = append(vals, float64(i))
	}
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tri.Validate(false); err != nil {
		t.Fatal(err)
	}

	pts = pts[:0]
	vals = vals[:0]
	for j := 0; j < 6; j++ {
		for i := 0; i < 6; i++ {
			pts = append(pts, mathutil.Vec3{X: float64(i), Y: float64(j), Z: 0})
			vals = append(vals, float64(i+j))
		}
	}
	tri, err = Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tri.Validate(false); err != nil {
		t.Fatal(err)
	}
}

func TestLocatorsAreIndependent(t *testing.T) {
	pts, vals := randomPoints(300, 15)
	tri, err := Build(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent locators must agree with a fresh locator's answers.
	q := make([]mathutil.Vec3, 200)
	rng := mathutil.NewRNG(1)
	for i := range q {
		q[i] = mathutil.Vec3{X: 0.2 + 0.6*rng.Float64(), Y: 0.2 + 0.6*rng.Float64(), Z: 0.2 + 0.6*rng.Float64()}
	}
	type res struct {
		v  float64
		ok bool
	}
	want := make([]res, len(q))
	ref := tri.NewLocator()
	for i, p := range q {
		v, ok := ref.Interpolate(p)
		want[i] = res{v, ok}
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			loc := tri.NewLocator()
			for i := len(q) - 1; i >= 0; i-- { // reversed order: cursor state differs
				v, ok := loc.Interpolate(q[i])
				if ok != want[i].ok || (ok && math.Abs(v-want[i].v) > 1e-9) {
					done <- fmt.Errorf("worker %d query %d: %v/%v vs %v/%v", w, i, v, ok, want[i].v, want[i].ok)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestNumTetsGrowsWithPoints(t *testing.T) {
	prev := 0
	for _, n := range []int{10, 100, 500} {
		pts, vals := randomPoints(n, int64(n)+1)
		tri, err := Build(pts, vals)
		if err != nil {
			t.Fatal(err)
		}
		nt := tri.NumTets()
		if nt <= prev {
			t.Fatalf("n=%d: tets %d did not grow past %d", n, nt, prev)
		}
		// A 3-D Delaunay triangulation of n points has O(n^2) tets in
		// the worst case but ~6-7n for uniform points (+ super-tet
		// cone tets).
		if nt > 40*n {
			t.Fatalf("n=%d: %d tets is implausibly many", n, nt)
		}
		prev = nt
	}
}

// gridSubset returns frac of the nodes of an nx×ny×nz unit-spaced grid,
// chosen at random: the cospherical layout sampled scientific data has.
func gridSubset(nx, ny, nz int, frac float64, seed int64) ([]mathutil.Vec3, []float64) {
	rng := mathutil.NewRNG(seed)
	var pts []mathutil.Vec3
	var vals []float64
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if rng.Float64() < frac {
					pts = append(pts, mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
					vals = append(vals, math.Sin(float64(i)*0.3)+float64(j)*0.1-float64(k*k)*0.02)
				}
			}
		}
	}
	return pts, vals
}

// TestCompactionKeepsEveryAnswer pins compact: a built mesh holds only
// live tetrahedra, and every grid node (in raster order, so walks chain
// from the previous answer) and random off-grid point interpolates to
// the same bits, with the same hull verdict, as on the uncompacted mesh.
func TestCompactionKeepsEveryAnswer(t *testing.T) {
	type setup struct {
		name       string
		pts        []mathutil.Vec3
		vals       []float64
		nx, ny, nz int
	}
	var setups []setup
	for _, frac := range []float64{0.01, 0.05} {
		for seed := int64(1); seed <= 3; seed++ {
			pts, vals := gridSubset(31, 31, 6, frac, seed)
			setups = append(setups, setup{fmt.Sprintf("grid f%g s%d", frac, seed), pts, vals, 31, 31, 6})
		}
	}
	for _, n := range []int{20, 300} {
		pts, vals := randomPoints(n, int64(n))
		for i := range pts {
			pts[i] = pts[i].Scale(10)
		}
		setups = append(setups, setup{fmt.Sprintf("random n%d", n), pts, vals, 11, 11, 11})
	}
	for _, s := range setups {
		loose, err := build(s.pts, s.vals)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		tight, err := Build(s.pts, s.vals)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(tight.tets) != loose.NumTets() || cap(tight.tets) != len(tight.tets) {
			t.Fatalf("%s: compacted mesh holds %d tets (cap %d), want the %d live ones",
				s.name, len(tight.tets), cap(tight.tets), loose.NumTets())
		}
		if _, err := tight.Validate(false); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if tight.Bytes() >= loose.Bytes() {
			t.Fatalf("%s: compaction kept %d of %d bytes", s.name, tight.Bytes(), loose.Bytes())
		}
		var queries []mathutil.Vec3
		for k := 0; k < s.nz; k++ {
			for j := 0; j < s.ny; j++ {
				for i := 0; i < s.nx; i++ {
					queries = append(queries, mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
				}
			}
		}
		rng := mathutil.NewRNG(int64(len(s.pts)))
		for i := 0; i < 2000; i++ {
			queries = append(queries, mathutil.Vec3{
				X: rng.Float64() * float64(s.nx), Y: rng.Float64() * float64(s.ny), Z: rng.Float64() * float64(s.nz),
			})
		}
		lw, tw := loose.NewLocator(), tight.NewLocator()
		for n, q := range queries {
			want, wantOK := lw.Interpolate(q)
			got, gotOK := tw.Interpolate(q)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s query %d %+v: compacted (%v, %v), uncompacted (%v, %v)", s.name, n, q, got, gotOK, want, wantOK)
			}
		}
	}
}

// The Bytes estimate's 72-byte tetrahedron is the struct's real size.
func TestTetBytesMatchesLayout(t *testing.T) {
	if got := unsafe.Sizeof(tet{}); got != 72 {
		t.Fatalf("tet is %d bytes, Bytes assumes 72", got)
	}
}

// freshLocate is the walk with nothing kept: both orient3d values of
// every face test computed afresh, without the orientation byte or a
// Locator's products. It is the oracle for locate, and adds the tets it
// visits to *steps.
func freshLocate(t *Triangulation, p mathutil.Vec3, hint int32, steps *int64) int32 {
	cur := hint
	for step := 0; step < 4*(len(t.tets)+16); step++ {
		*steps++
		ct := &t.tets[cur]
		moved := false
		for f := 0; f < 4; f++ {
			fa, fb, fc := faceOf(ct.verts, f)
			a, b, c := t.verts[fa], t.verts[fb], t.verts[fc]
			sideP := orient3d(a, b, c, p)
			sideV := orient3d(a, b, c, t.verts[ct.verts[f]])
			if sideV > 0 && sideP < 0 || sideV < 0 && sideP > 0 {
				if nb := ct.neighbor[f]; nb != noTet {
					cur, moved = nb, true
					break
				}
			}
		}
		if !moved {
			return cur
		}
	}
	for i := range t.tets {
		if !t.tets[i].dead && t.contains(int32(i), p) {
			return int32(i)
		}
	}
	return noTet
}

// freshInterpolate is Interpolate on freshLocate and barycentric
// computed afresh per query.
func freshInterpolate(t *Triangulation, q mathutil.Vec3, last *int32, steps *int64) (float64, bool) {
	k := freshLocate(t, q, *last, steps)
	if k == noTet {
		return 0, false
	}
	*last = k
	tt := &t.tets[k]
	for _, v := range tt.verts {
		if v < 4 {
			return 0, false
		}
	}
	w, ok := barycentric(t.verts[tt.verts[0]], t.verts[tt.verts[1]], t.verts[tt.verts[2]], t.verts[tt.verts[3]], q)
	if !ok {
		return 0, false
	}
	return w[0]*t.values[tt.verts[0]] + w[1]*t.values[tt.verts[1]] + w[2]*t.values[tt.verts[2]] + w[3]*t.values[tt.verts[3]], true
}

// TestLocatorMatchesFreshPredicates pins what a tet and a Locator keep:
// every live tet's orientation byte is the signs of its four
// orient3d(face, opposite vertex) values, every face's cached normal
// gives orient3d's bits, and a Locator answers each query in raster
// order, random order and repeated in place with the bits, hull verdict,
// tet and number of tets visited of the walk that recomputes every
// predicate and weight product, on compacted and uncompacted meshes.
// Equal visits rule out a walk that cycles into the exhaustive scan,
// which would hide a wrong predicate behind a right answer.
func TestLocatorMatchesFreshPredicates(t *testing.T) {
	for _, frac := range []float64{0.005, 0.02, 0.1} {
		pts, vals := gridSubset(24, 20, 7, frac, int64(1000*frac))
		loose, err := build(pts, vals)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := Build(pts, vals)
		if err != nil {
			t.Fatal(err)
		}
		var queries []mathutil.Vec3
		for k := 0; k < 7; k++ {
			for j := 0; j < 20; j++ {
				for i := 0; i < 24; i++ {
					queries = append(queries, mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
				}
			}
		}
		rng := mathutil.NewRNG(int64(len(pts)))
		for i := 0; i < 1500; i++ {
			q := mathutil.Vec3{X: rng.Float64()*26 - 1, Y: rng.Float64()*22 - 1, Z: rng.Float64()*9 - 1}
			queries = append(queries, q, q)
		}
		for name, tri := range map[string]*Triangulation{"uncompacted": loose, "compacted": tight} {
			for k := range tri.tets {
				tt := &tri.tets[k]
				if tt.dead {
					continue
				}
				if tt.sides != tri.orientation(tt.verts) {
					t.Fatalf("%g %s tet %d: sides %08b, orient3d gives %08b", frac, name, k, tt.sides, tri.orientation(tt.verts))
				}
				var fn faceNormals
				for f := 0; f < 4; f++ {
					fa, fb, fc := faceOf(tt.verts, f)
					a, b, c := tri.verts[fa], tri.verts[fb], tri.verts[fc]
					fn.n[f], fn.a[f] = b.Sub(a).Cross(c.Sub(a)), a
					for _, q := range queries[k%len(queries):][:4] {
						if got, want := fn.side(f, q), orient3d(a, b, c, q); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%g %s tet %d face %d at %+v: cached normal gives %v, orient3d %v", frac, name, k, f, q, got, want)
						}
					}
				}
			}
			loc := tri.NewLocator()
			last := tri.firstLive
			var steps int64
			for n, q := range queries {
				before := steps
				got, gotOK := loc.Interpolate(q)
				want, wantOK := freshInterpolate(tri, q, &last, &steps)
				if steps-before >= int64(4*(len(tri.tets)+16)) {
					t.Fatalf("%g %s query %d: the fresh walk cycled", frac, name, n)
				}
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%g %s query %d %+v: Locator (%v, %v), fresh walk (%v, %v)", frac, name, n, q, got, gotOK, want, wantOK)
				}
				if loc.last != last || loc.walk.steps != steps {
					t.Fatalf("%g %s query %d: Locator ended in tet %d after %d visits, fresh walk in %d after %d", frac, name, n, loc.last, loc.walk.steps, last, steps)
				}
			}
		}
	}
}
