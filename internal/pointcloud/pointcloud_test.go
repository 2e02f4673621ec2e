package pointcloud

import (
	"math"
	"strings"
	"testing"

	"fillvoid/internal/mathutil"
)

func sample() *Cloud {
	c := New("f", 3)
	c.Add(mathutil.Vec3{X: 1, Y: 2, Z: 3}, 10)
	c.Add(mathutil.Vec3{X: -1, Y: 0, Z: 5}, -2)
	c.Add(mathutil.Vec3{X: 0, Y: 4, Z: 1}, 7)
	return c
}

func TestAddLen(t *testing.T) {
	c := sample()
	if c.Len() != 3 {
		t.Fatalf("len %d", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	c := sample()
	b := c.Bounds()
	if b.Min != (mathutil.Vec3{X: -1, Y: 0, Z: 1}) {
		t.Fatalf("min %+v", b.Min)
	}
	if b.Max != (mathutil.Vec3{X: 1, Y: 4, Z: 5}) {
		t.Fatalf("max %+v", b.Max)
	}
	empty := New("f", 0)
	eb := empty.Bounds()
	if eb.Contains(mathutil.Vec3{}) {
		t.Fatal("empty bounds should contain nothing")
	}
}

func TestValueRange(t *testing.T) {
	c := sample()
	lo, hi := c.ValueRange()
	if lo != -2 || hi != 10 {
		t.Fatalf("range [%g, %g]", lo, hi)
	}
	if lo, hi := New("f", 0).ValueRange(); lo != 0 || hi != 0 {
		t.Fatal("empty range should be 0,0")
	}
}

func TestMerge(t *testing.T) {
	a := sample()
	b := sample()
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 6 {
		t.Fatalf("merged len %d", m.Len())
	}
	if m.Points[3] != a.Points[0] {
		t.Fatal("merge order wrong")
	}
	other := New("g", 0)
	if _, err := a.Merge(other); err == nil {
		t.Fatal("accepted mismatched attribute names")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Values[0] = 999
	b.Points[0] = mathutil.Vec3{}
	if a.Values[0] == 999 || a.Points[0] == (mathutil.Vec3{}) {
		t.Fatal("clone shares storage")
	}
}

func TestValidateCatchesSkew(t *testing.T) {
	c := sample()
	c.Values = c.Values[:2]
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for skewed slices")
	}
}

// A NaN or ±Inf coordinate anywhere in the cloud corrupts every k-d
// tree search over it, so Validate rejects it and names the first such
// point; a non-finite value is the value's own business.
func TestValidateRejectsNonFiniteCoordinates(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 3; axis++ {
			c := sample()
			c.Add(mathutil.Vec3{X: 2, Y: 2, Z: 2}, 1)
			c.Points[1] = c.Points[1].WithComponent(axis, bad)
			c.Points[3] = c.Points[3].WithComponent(axis, bad)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), "point 1 ") {
				t.Fatalf("coordinate %d = %v: got %v, want an error naming point 1", axis, bad, err)
			}
		}
	}
	c := sample()
	c.Values[0] = math.NaN()
	if err := c.Validate(); err != nil {
		t.Fatalf("NaN value rejected: %v", err)
	}
}

func TestSubsample(t *testing.T) {
	c := sample()
	got := c.Subsample(func(i int) bool { return i%2 == 0 })
	if got.Len() != 2 {
		t.Fatalf("len %d", got.Len())
	}
	if got.Values[0] != 10 || got.Values[1] != 7 {
		t.Fatalf("values %v", got.Values)
	}
}
