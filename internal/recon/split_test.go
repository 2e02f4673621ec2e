package recon_test

import (
	"testing"

	"fillvoid/internal/recon"
)

// TestSplitBoxPartitions: for a range of boxes and widths, the slabs
// must tile the box exactly — every cell in exactly one slab — and
// follow ascending slab order along one axis.
func TestSplitBoxPartitions(t *testing.T) {
	boxes := []recon.Region{
		recon.Box(0, 0, 0, 16, 12, 8),
		recon.Box(3, 2, 1, 11, 10, 5),
		recon.Box(0, 0, 0, 1, 1, 7),
		recon.Box(0, 0, 0, 9, 1, 1),
		recon.Box(2, 2, 2, 3, 3, 3), // single cell
	}
	for _, box := range boxes {
		for _, n := range []int{1, 2, 3, 4, 7, 64} {
			slabs := box.Split(n)
			if len(slabs) < 1 || len(slabs) > n {
				t.Fatalf("%v.Split(%d) returned %d slabs", box, n, len(slabs))
			}
			total := 0
			seen := make(map[[3]int]int)
			for si, s := range slabs {
				if s.Len() == 0 {
					t.Fatalf("%v.Split(%d): slab %d is empty", box, n, si)
				}
				total += s.Len()
				for m := 0; m < s.Len(); m++ {
					i, j, k := s.Coords(m)
					cell := [3]int{i, j, k}
					if prev, dup := seen[cell]; dup {
						t.Fatalf("cell %v in slabs %d and %d", cell, prev, si)
					}
					seen[cell] = si
				}
			}
			if total != box.Len() {
				t.Fatalf("%v.Split(%d) covers %d cells, want %d", box, n, total, box.Len())
			}
			for m := 0; m < box.Len(); m++ {
				i, j, k := box.Coords(m)
				if _, ok := seen[[3]int{i, j, k}]; !ok {
					t.Fatalf("cell (%d,%d,%d) of %v missing from slabs", i, j, k, box)
				}
			}
		}
	}
}

// TestSplitAxisAndWidths pins which axis Split cuts (the largest, ties
// toward z and then y), the slab bounds along it, and the clamp of n
// to that axis's extent.
func TestSplitAxisAndWidths(t *testing.T) {
	for _, c := range []struct {
		name string
		box  recon.Region
		n    int
		want []recon.Region
	}{
		{"x largest", recon.Box(0, 0, 0, 6, 2, 2), 3,
			[]recon.Region{recon.Box(0, 0, 0, 2, 2, 2), recon.Box(2, 0, 0, 4, 2, 2), recon.Box(4, 0, 0, 6, 2, 2)}},
		{"cube ties to z", recon.Box(1, 1, 1, 5, 5, 5), 2,
			[]recon.Region{recon.Box(1, 1, 1, 5, 5, 3), recon.Box(1, 1, 3, 5, 5, 5)}},
		{"x=z tie goes to z", recon.Box(0, 0, 0, 6, 3, 6), 2,
			[]recon.Region{recon.Box(0, 0, 0, 6, 3, 3), recon.Box(0, 0, 3, 6, 3, 6)}},
		{"y=z tie goes to z", recon.Box(0, 0, 0, 3, 6, 6), 2,
			[]recon.Region{recon.Box(0, 0, 0, 3, 6, 3), recon.Box(0, 0, 3, 3, 6, 6)}},
		{"x=y tie goes to y", recon.Box(0, 0, 0, 5, 5, 3), 2,
			[]recon.Region{recon.Box(0, 0, 0, 5, 2, 3), recon.Box(0, 2, 0, 5, 5, 3)}},
		{"uneven widths spread", recon.Box(0, 0, 10, 1, 1, 20), 4,
			[]recon.Region{recon.Box(0, 0, 10, 1, 1, 12), recon.Box(0, 0, 12, 1, 1, 15),
				recon.Box(0, 0, 15, 1, 1, 17), recon.Box(0, 0, 17, 1, 1, 20)}},
		{"n above extent", recon.Box(4, 0, 0, 7, 2, 1), 64,
			[]recon.Region{recon.Box(4, 0, 0, 5, 2, 1), recon.Box(5, 0, 0, 6, 2, 1), recon.Box(6, 0, 0, 7, 2, 1)}},
		{"n zero", recon.Box(0, 0, 0, 4, 4, 4), 0, []recon.Region{recon.Box(0, 0, 0, 4, 4, 4)}},
	} {
		got := c.box.Split(c.n)
		if len(got) != len(c.want) {
			t.Errorf("%s: %v.Split(%d) = %v, want %v", c.name, c.box, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i].IsPoints() || bounds(got[i]) != bounds(c.want[i]) {
				t.Errorf("%s: %v.Split(%d)[%d] = %v, want %v", c.name, c.box, c.n, i, got[i], c.want[i])
			}
		}
	}
}

func bounds(r recon.Region) [6]int { return [6]int{r.I0, r.J0, r.K0, r.I1, r.J1, r.K1} }
