package kdtree

import (
	"testing"

	"fillvoid/internal/mathutil"
)

// FuzzKNearest builds a cloud from the fuzz bytes and checks KNearest,
// and KNearestBatchInto at workers 1 and 3, against brute force. The
// first byte picks a lattice step (dyadic steps tie exactly, 0.1 and
// 1/3 round) and every following three bytes are one point's signed
// lattice coordinates, so clouds are full of duplicates and exact
// distance ties. The query sits on a sixteenth of the step, and the
// batch queries it and then every point in order, which exercises the
// warm start on coincident and neighbouring queries.
func FuzzKNearest(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 2, 3, 0, 0, 0, 4, 4, 4}, uint8(2), int16(16), int16(16), int16(16))
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0}, uint8(5), int16(8), int16(8), int16(8))
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 250, 3, 7, 1, 1, 1}, uint8(3), int16(-40), int16(100), int16(0))
	f.Add([]byte{3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}, uint8(12), int16(0), int16(0), int16(0))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, qx, qy, qz int16) {
		if len(data) == 0 {
			return
		}
		step := [...]float64{1, 0.25, 0.1, 1.0 / 3}[data[0]%4]
		data = data[1:]
		pts := make([]mathutil.Vec3, min(len(data)/3, 64))
		for i := range pts {
			b := data[3*i : 3*i+3]
			pts[i] = mathutil.Vec3{X: float64(int8(b[0])) * step, Y: float64(int8(b[1])) * step, Z: float64(int8(b[2])) * step}
		}
		q := mathutil.Vec3{X: float64(qx) * step / 16, Y: float64(qy) * step / 16, Z: float64(qz) * step / 16}
		kk := int(k % 20)
		tree := Build(pts)
		sameNeighbors(t, tree.KNearest(q, kk), bruteKNN(pts, q, kk))
		if kk > 0 && len(pts) > 0 {
			checkBatch(t, tree, pts, append([]mathutil.Vec3{q}, pts...), kk)
		}
	})
}
