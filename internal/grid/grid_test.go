package grid

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"fillvoid/internal/mathutil"
)

func TestIndexCoordsRoundTrip(t *testing.T) {
	v := New(7, 5, 3)
	for idx := 0; idx < v.Len(); idx++ {
		i, j, k := v.Coords(idx)
		if v.Index(i, j, k) != idx {
			t.Fatalf("round trip failed at %d -> (%d,%d,%d)", idx, i, j, k)
		}
	}
}

func TestIndexOrderXFastest(t *testing.T) {
	v := New(4, 3, 2)
	if v.Index(1, 0, 0) != 1 {
		t.Fatal("x should vary fastest")
	}
	if v.Index(0, 1, 0) != 4 {
		t.Fatal("y stride should be NX")
	}
	if v.Index(0, 0, 1) != 12 {
		t.Fatal("z stride should be NX*NY")
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { New(0, 1, 1) })
	mustPanic(func() {
		NewWithGeometry(2, 2, 2, mathutil.Vec3{}, mathutil.Vec3{X: 0, Y: 1, Z: 1})
	})
}

func TestPointGeometry(t *testing.T) {
	v := NewWithGeometry(3, 3, 3,
		mathutil.Vec3{X: 10, Y: 20, Z: 30},
		mathutil.Vec3{X: 1, Y: 2, Z: 3})
	if got := v.Point(0, 0, 0); got != (mathutil.Vec3{X: 10, Y: 20, Z: 30}) {
		t.Fatalf("origin: %+v", got)
	}
	if got := v.Point(2, 2, 2); got != (mathutil.Vec3{X: 12, Y: 24, Z: 36}) {
		t.Fatalf("far corner: %+v", got)
	}
	b := v.Bounds()
	if b.Min != v.Point(0, 0, 0) || b.Max != v.Point(2, 2, 2) {
		t.Fatalf("bounds: %+v", b)
	}
}

func TestFillAndStats(t *testing.T) {
	v := New(10, 10, 10)
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 {
		return float64(i + j + k)
	})
	s := v.Stats()
	if s.Min() != 0 || s.Max() != 27 {
		t.Fatalf("min/max: %g/%g", s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-13.5) > 1e-9 {
		t.Fatalf("mean: %g", s.Mean())
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(2, 2, 2)
	v.Set(1, 1, 1, 5)
	c := v.Clone()
	c.Set(1, 1, 1, 9)
	if v.At(1, 1, 1) != 5 {
		t.Fatal("clone shares storage")
	}
	if !v.SameGeometry(c) {
		t.Fatal("clone geometry differs")
	}
}

func TestTrilinearAtGridNodesExact(t *testing.T) {
	v := NewWithGeometry(5, 4, 3, mathutil.Vec3{X: -1, Y: 2, Z: 0}, mathutil.Vec3{X: 0.5, Y: 1, Z: 2})
	v.Fill(func(i, j, k int, p mathutil.Vec3) float64 { return p.X*p.Y + p.Z })
	for idx := 0; idx < v.Len(); idx++ {
		p := v.PointAt(idx)
		if got := v.TrilinearAt(p); math.Abs(got-v.Data[idx]) > 1e-12 {
			t.Fatalf("node %d: got %g want %g", idx, got, v.Data[idx])
		}
	}
}

func TestTrilinearReproducesTrilinearFunctions(t *testing.T) {
	// A function linear in each axis is reproduced exactly between nodes.
	v := New(4, 4, 4)
	f := func(p mathutil.Vec3) float64 { return 2*p.X - p.Y + 3*p.Z + p.X*p.Y - p.Y*p.Z + p.X*p.Y*p.Z }
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return f(p) })
	g := func(x, y, z float64) bool {
		p := mathutil.Vec3{
			X: mathutil.Clamp(math.Abs(x), 0, 3),
			Y: mathutil.Clamp(math.Abs(y), 0, 3),
			Z: mathutil.Clamp(math.Abs(z), 0, 3),
		}
		return math.Abs(v.TrilinearAt(p)-f(p)) < 1e-9
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTrilinearClampsOutside(t *testing.T) {
	v := New(3, 3, 3)
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 { return float64(i) })
	if got := v.TrilinearAt(mathutil.Vec3{X: -5, Y: 1, Z: 1}); got != 0 {
		t.Fatalf("below: %g", got)
	}
	if got := v.TrilinearAt(mathutil.Vec3{X: 50, Y: 1, Z: 1}); got != 2 {
		t.Fatalf("above: %g", got)
	}
}

func TestResampleIdentity(t *testing.T) {
	v := New(6, 5, 4)
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 { return float64(i*100 + j*10 + k) })
	r := v.Resample(6, 5, 4, v.Origin, v.Spacing)
	if MaxAbsDiff(v, r) > 1e-12 {
		t.Fatal("identity resample changed data")
	}
}

func TestGradientOfLinearField(t *testing.T) {
	v := NewWithGeometry(8, 8, 8, mathutil.Vec3{}, mathutil.Vec3{X: 0.5, Y: 2, Z: 1})
	v.Fill(func(_, _, _ int, p mathutil.Vec3) float64 { return 3*p.X - 2*p.Y + 7*p.Z })
	want := mathutil.Vec3{X: 3, Y: -2, Z: 7}
	for k := 0; k < v.NZ; k++ {
		for j := 0; j < v.NY; j++ {
			for i := 0; i < v.NX; i++ {
				g := v.GradientAt(i, j, k)
				if g.Sub(want).Norm() > 1e-9 {
					t.Fatalf("(%d,%d,%d): got %+v want %+v", i, j, k, g, want)
				}
			}
		}
	}
}

func TestGradientFieldMatchesPointwise(t *testing.T) {
	v := New(6, 6, 6)
	v.Fill(func(i, j, k int, p mathutil.Vec3) float64 { return math.Sin(p.X) * math.Cos(p.Y+p.Z) })
	gx, gy, gz := v.GradientField()
	for idx := 0; idx < v.Len(); idx++ {
		i, j, k := v.Coords(idx)
		g := v.GradientAt(i, j, k)
		if gx.Data[idx] != g.X || gy.Data[idx] != g.Y || gz.Data[idx] != g.Z {
			t.Fatalf("mismatch at %d", idx)
		}
	}
	gm := v.GradientMagnitudeField()
	for idx := 0; idx < v.Len(); idx++ {
		i, j, k := v.Coords(idx)
		if math.Abs(gm.Data[idx]-v.GradientAt(i, j, k).Norm()) > 1e-12 {
			t.Fatalf("magnitude mismatch at %d", idx)
		}
	}
}

func TestGradientSingletonAxis(t *testing.T) {
	v := New(4, 4, 1) // flat in z
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 { return float64(i + j) })
	g := v.GradientAt(1, 1, 0)
	if g.Z != 0 {
		t.Fatalf("z gradient on flat axis: %g", g.Z)
	}
}

func TestSliceZ(t *testing.T) {
	v := New(3, 2, 2)
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 { return float64(v.Index(i, j, k)) })
	s := v.SliceZ(1)
	if len(s) != 2 || len(s[0]) != 3 {
		t.Fatalf("shape %dx%d", len(s), len(s[0]))
	}
	if s[0][0] != float64(v.Index(0, 0, 1)) || s[1][2] != float64(v.Index(2, 1, 1)) {
		t.Fatalf("content: %v", s)
	}
	// Mutating the slice must not touch the volume.
	s[0][0] = -1
	if v.At(0, 0, 1) == -1 {
		t.Fatal("SliceZ returned shared storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range slice")
		}
	}()
	v.SliceZ(5)
}

func TestMaxAbsDiff(t *testing.T) {
	a := New(2, 2, 2)
	b := New(2, 2, 2)
	b.Data[3] = -4
	if got := MaxAbsDiff(a, b); got != 4 {
		t.Fatalf("got %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	MaxAbsDiff(a, New(3, 2, 2))
}

// TestStatsSameAtAnyCoreCount requires Stats to give the same bits at
// GOMAXPROCS 1 and 4 on a seeded 125×125×25 volume. Merging one partial
// accumulator per worker gave a different mean and standard deviation
// at each core count.
func TestStatsSameAtAnyCoreCount(t *testing.T) {
	v := New(125, 125, 25)
	rng := mathutil.NewRNG(7)
	for i := range v.Data {
		v.Data[i] = 1000 + 50*rng.NormFloat64()
	}
	stats := func(procs int) *mathutil.RunningStats {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return v.Stats()
	}
	one, four := stats(1), stats(4)
	for _, f := range []struct {
		name      string
		one, four float64
	}{
		{"Mean", one.Mean(), four.Mean()},
		{"StdDev", one.StdDev(), four.StdDev()},
		{"Min", one.Min(), four.Min()},
		{"Max", one.Max(), four.Max()},
	} {
		if math.Float64bits(f.one) != math.Float64bits(f.four) {
			t.Errorf("%s: GOMAXPROCS 1 gives %v, 4 gives %v", f.name, f.one, f.four)
		}
	}
	if one.N() != int64(v.Len()) || four.N() != int64(v.Len()) {
		t.Errorf("N = %d and %d, want %d", one.N(), four.N(), v.Len())
	}
	if want := mathutil.StatsOf(v.Data); math.Abs(one.Mean()-want.Mean()) > 1e-9 || math.Abs(one.StdDev()-want.StdDev()) > 1e-9 {
		t.Errorf("mean %v stddev %v, one pass gives %v and %v", one.Mean(), one.StdDev(), want.Mean(), want.StdDev())
	}
}
