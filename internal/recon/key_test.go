package recon

import (
	"context"
	"errors"
	"testing"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
)

func keyTestCloud(n int, nameSuffix string) *pointcloud.Cloud {
	c := pointcloud.New("v"+nameSuffix, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n)
		c.Add(mathutil.Vec3{X: f, Y: 1 - f, Z: f * f}, f*10)
	}
	return c
}

func TestHashCloudDeterministicAndDiscriminating(t *testing.T) {
	a := keyTestCloud(100, "")
	b := keyTestCloud(100, "")
	if HashCloud(a) != HashCloud(b) {
		t.Fatal("identical clouds hash differently")
	}
	if HashCloud(a) != HashCloud(a.Clone()) {
		t.Fatal("clone hashes differently")
	}
	// One value flipped.
	c := a.Clone()
	c.Values[42] += 1e-9
	if HashCloud(a) == HashCloud(c) {
		t.Fatal("value perturbation not detected")
	}
	// One coordinate flipped.
	d := a.Clone()
	d.Points[7].Y += 1e-12
	if HashCloud(a) == HashCloud(d) {
		t.Fatal("point perturbation not detected")
	}
	// Different attribute name.
	e := keyTestCloud(100, "2")
	if HashCloud(a) == HashCloud(e) {
		t.Fatal("name change not detected")
	}
	// Different length.
	if HashCloud(a) == HashCloud(keyTestCloud(99, "")) {
		t.Fatal("length change not detected")
	}
}

func TestCloudHashStringRoundTrip(t *testing.T) {
	h := HashCloud(keyTestCloud(10, ""))
	s := h.String()
	if len(s) != 16 {
		t.Fatalf("hash string %q not 16 hex chars", s)
	}
	back, err := ParseCloudHash(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip %v -> %q -> %v", h, s, back)
	}
	if _, err := ParseCloudHash("nope"); err == nil {
		t.Fatal("accepted garbage hash")
	}
}

func TestKeyOfDistinguishesSpecs(t *testing.T) {
	c := keyTestCloud(20, "")
	s1 := GridSpec{NX: 4, NY: 4, NZ: 4, Spacing: mathutil.Vec3{X: 1, Y: 1, Z: 1}}
	s2 := s1
	s2.NZ = 5
	k1, k2 := KeyOf(c, s1), KeyOf(c, s2)
	if k1 == k2 {
		t.Fatal("different specs produced equal keys")
	}
	if k1 != KeyOf(c.Clone(), s1) {
		t.Fatal("equal inputs produced different keys")
	}
	m := map[PlanKey]int{k1: 1, k2: 2}
	if len(m) != 2 {
		t.Fatal("PlanKey not usable as a map key")
	}
}

func TestPlanStatsTracksLazyBuilds(t *testing.T) {
	c := keyTestCloud(50, "")
	spec := GridSpec{NX: 8, NY: 8, NZ: 2, Spacing: mathutil.Vec3{X: 1. / 7, Y: 1. / 7, Z: 1}}
	p, err := NewPlan(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.TreeBuilt || st.NearestTableBuilt || st.MemoEntries != 0 {
		t.Fatalf("fresh plan reports built pieces: %+v", st)
	}
	if st.CloudPoints != 50 || st.Bytes != 50*32 {
		t.Fatalf("fresh plan stats %+v", st)
	}
	base := st.Bytes

	p.Tree()
	st = p.Stats()
	if !st.TreeBuilt || st.Bytes <= base {
		t.Fatalf("tree build not reflected: %+v", st)
	}
	withTree := st.Bytes

	p.NearestTable(2)
	if _, err := p.Memo("m", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if !st.NearestTableBuilt || st.MemoEntries != 1 || st.Bytes != withTree+int64(spec.Len())*12 {
		t.Fatalf("nearest/memo build not reflected: %+v", st)
	}

	// A memo value that reports its size adds exactly that size; a
	// failed build adds nothing.
	withTable := st.Bytes
	if _, err := p.Memo("sized", func() (any, error) { return sizedMemo(4096), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Memo("failed", func() (any, error) { return sizedMemo(1 << 20), errFailedMemo }); err != errFailedMemo {
		t.Fatalf("failed memo returned %v", err)
	}
	st = p.Stats()
	if st.MemoEntries != 3 || st.Bytes != withTable+4096 {
		t.Fatalf("sized memo not counted exactly: %+v, want Bytes %d", st, withTable+4096)
	}

	// Stats must stay valid while queries run (smoke: one region query).
	if _, _, err := p.NearestFor(context.Background(), Full(spec), 2); err != nil {
		t.Fatal(err)
	}
	_ = p.Stats()
}

// sizedMemo is a memo value that reports its retained size.
type sizedMemo int64

func (m sizedMemo) Bytes() int64 { return int64(m) }

var errFailedMemo = errors.New("memo build failed")
