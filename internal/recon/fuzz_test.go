package recon

import (
	"context"
	"math"
	"testing"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
)

// fuzzCloud decodes a small grid and a cloud on it: dims picks a grid of
// at most 6×6×4 nodes with non-dyadic spacings, and every three bytes of
// raw place one sample on the half-node lattice around the grid (node
// positions, and midpoints that tie two or more samples exactly for the
// nodes between them). A triple starting at 250 or above repeats the
// previous sample instead: a duplicate point.
func fuzzCloud(dims uint16, raw []byte) (*pointcloud.Cloud, GridSpec) {
	spec := GridSpec{
		NX: 1 + int(dims%6), NY: 1 + int(dims/6%6), NZ: 1 + int(dims/36%4),
		Origin:  mathutil.Vec3{X: -0.5, Y: 0.25, Z: 1},
		Spacing: mathutil.Vec3{X: 0.3, Y: 1.0 / 3, Z: 0.7},
	}
	c := pointcloud.New("f", len(raw)/3)
	for i := 0; i+3 <= len(raw) && c.Len() < 64; i += 3 {
		if raw[i] >= 250 && c.Len() > 0 {
			c.Add(c.Points[c.Len()-1], float64(i))
			continue
		}
		half := func(b byte, n int) float64 { return float64(int(b)%(2*n+2)-1) / 2 }
		c.Add(mathutil.Vec3{
			X: spec.Origin.X + half(raw[i], spec.NX)*spec.Spacing.X,
			Y: spec.Origin.Y + half(raw[i+1], spec.NY)*spec.Spacing.Y,
			Z: spec.Origin.Z + half(raw[i+2], spec.NZ)*spec.Spacing.Z,
		}, float64(i))
	}
	return c, spec
}

// FuzzNeighbors checks full-grid, box and point-list passes over
// fuzzCloud grids against an exhaustive canonical sort, index and
// distance bits alike, at k from 1 to 17 and 1 to 4 workers, and the
// visitor contract of their tiles (see checkPass). box picks the box,
// and the point list asks every grid node and then every sample's own
// position.
func FuzzNeighbors(f *testing.F) {
	f.Add(uint16(5+6*4+36*2), uint8(4), uint32(0x01020304), []byte{2, 2, 2, 4, 2, 2, 3, 5, 1, 250, 0, 0})
	f.Add(uint16(3+6*3+36*1), uint8(16+17*3), uint32(0), []byte{1, 1, 1, 3, 3, 3, 5, 5, 1, 7, 1, 3, 0, 9, 4})
	f.Add(uint16(5+6*5+36*3), uint8(11+17), uint32(0xffffffff), []byte{0, 0, 0, 13, 13, 9, 6, 6, 4, 250, 1, 1, 250, 2, 2, 7, 7, 5})
	f.Add(uint16(0), uint8(0), uint32(7), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, dims uint16, kw uint8, box uint32, raw []byte) {
		c, spec := fuzzCloud(dims, raw)
		if c.Len() == 0 {
			return
		}
		k, workers := 1+int(kw%17), 1+int(kw/17%4)
		p, err := NewPlan(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		// One byte per box axis start, one per extent.
		axis := func(shift, n int) (int, int) {
			lo := int(box>>shift&0xf) % n
			return lo, lo + 1 + int(box>>(shift+4)&0xf)%(n-lo)
		}
		i0, i1 := axis(0, spec.NX)
		j0, j1 := axis(8, spec.NY)
		k0, k1 := axis(16, spec.NZ)
		full := Full(spec)
		pts := make([]mathutil.Vec3, 0, spec.Len()+c.Len())
		for m := range spec.Len() {
			pts = append(pts, full.PointAt(spec, m))
		}
		pts = append(pts, c.Points...)
		for _, region := range []Region{full, Box(i0, j0, k0, i1, j1, k1), PointList(pts)} {
			checkPass(t, p, region, k, workers)
		}
	})
}

// FuzzNearestTable checks that the nearest table holds, index and
// distance bits, what one tree.Nearest call per node answers, whether
// NearestTable builds it or a full-grid Neighbors pass at k > 2 fills
// it, at any worker count.
func FuzzNearestTable(f *testing.F) {
	f.Add(uint16(5+6*4+36*2), uint8(3), []byte{2, 2, 2, 4, 2, 2, 3, 5, 1, 250, 0, 0})
	f.Add(uint16(3+6*3+36*1), uint8(0), []byte{1, 1, 1, 3, 3, 3, 5, 5, 1, 7, 1, 3})
	f.Add(uint16(0), uint8(1), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, dims uint16, kw uint8, raw []byte) {
		c, spec := fuzzCloud(dims, raw)
		if c.Len() == 0 {
			return
		}
		k, workers := 3+int(kw%4), 1+int(kw/4%4)
		direct, err := NewPlan(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		filled, err := NewPlan(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := filled.Neighbors(context.Background(), Full(spec), k, workers, nil); err != nil {
			t.Fatal(err)
		}
		if !filled.Stats().NearestTableBuilt {
			t.Fatalf("a full-grid pass at k = %d left no nearest table", k)
		}
		tree := direct.Tree()
		full := Full(spec)
		for name, p := range map[string]*Plan{"NearestTable": direct, "pass": filled} {
			idx, d2 := p.NearestTable(workers)
			for m := range idx {
				wi, wd := tree.Nearest(full.PointAt(spec, m))
				if int(idx[m]) != wi || math.Float64bits(d2[m]) != math.Float64bits(wd) {
					t.Fatalf("%s table, node %d of %d samples: (%d, %v), Nearest gives (%d, %v)",
						name, m, c.Len(), idx[m], d2[m], wi, wd)
				}
			}
		}
	})
}
