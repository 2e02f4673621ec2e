package interp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// baselinePins holds the FNV-1a-64 hash of the Float64bits of every
// pinned output (see TestBaselineOutputsPinned), minted before the
// Delaunay build, its Locator and the Sibson scatter were optimized, so
// they show those optimizations moved no bit. They hold for
// GOARCH=amd64, where Go never fuses a multiply and an add; a change
// that means to move them re-mints them from the failure's listing.
var baselinePins = map[string]string{
	"isabel-s1-t7-0.5%/linear/box":     "cbb19c3246ce380a",
	"isabel-s1-t7-0.5%/linear/full":    "275cf5f7c64d59af",
	"isabel-s1-t7-0.5%/linear/points":  "cd36c04de242fa6f",
	"isabel-s1-t7-0.5%/natural/box":    "f22c40a3ba6347b7",
	"isabel-s1-t7-0.5%/natural/full":   "5d4f82f389d8076c",
	"isabel-s1-t7-0.5%/natural/points": "0286278782c5dbf9",
	"isabel-s1-t7-0.5%/nearest/box":    "171aa0d6841d7f11",
	"isabel-s1-t7-0.5%/nearest/full":   "a96c37f9bba03366",
	"isabel-s1-t7-0.5%/nearest/points": "d7744ca9954ec98b",
	"isabel-s1-t7-0.5%/rbf/box":        "3d7dbc3d1f06bff5",
	"isabel-s1-t7-0.5%/rbf/full":       "0dd50b6ecb28bf77",
	"isabel-s1-t7-0.5%/rbf/points":     "bfcbc6ac418bf7b4",
	"isabel-s1-t7-0.5%/shepard/box":    "017c800e8877b9b3",
	"isabel-s1-t7-0.5%/shepard/full":   "b515a2d179ad2afa",
	"isabel-s1-t7-0.5%/shepard/points": "a4588ae331219271",
	"isabel-s1-t7-1%/linear/box":       "6ca5e1f668bb2ae9",
	"isabel-s1-t7-1%/linear/full":      "acd3151e10808c63",
	"isabel-s1-t7-1%/linear/points":    "c2389bfd0aac1a28",
	"isabel-s1-t7-1%/natural/box":      "423aac5544f27324",
	"isabel-s1-t7-1%/natural/full":     "54f1daa472134292",
	"isabel-s1-t7-1%/natural/points":   "1e62839bef18e088",
	"isabel-s1-t7-1%/nearest/box":      "ae646c25d5a88e35",
	"isabel-s1-t7-1%/nearest/full":     "cd252dc984c4a85a",
	"isabel-s1-t7-1%/nearest/points":   "1b377e28062ba5e8",
	"isabel-s1-t7-1%/rbf/box":          "aefe678c68f0935a",
	"isabel-s1-t7-1%/rbf/full":         "eb9831b248d37999",
	"isabel-s1-t7-1%/rbf/points":       "8050a226d338a002",
	"isabel-s1-t7-1%/shepard/box":      "ca6f617112ba9ee5",
	"isabel-s1-t7-1%/shepard/full":     "d42eb613dea605f6",
	"isabel-s1-t7-1%/shepard/points":   "a8c61b348fa61fcf",
	"isabel-s2-t9-1%/linear/box":       "649f929a61a6a130",
	"isabel-s2-t9-1%/linear/full":      "b434d5b17a017791",
	"isabel-s2-t9-1%/linear/points":    "5354a36352aed882",
	"isabel-s2-t9-1%/natural/box":      "179e0e1458858280",
	"isabel-s2-t9-1%/natural/full":     "480c968fcf0aee53",
	"isabel-s2-t9-1%/natural/points":   "dc0765cbff8ae02e",
	"isabel-s2-t9-1%/nearest/box":      "b7f82e527c0ff04c",
	"isabel-s2-t9-1%/nearest/full":     "88a05bac6eca0c31",
	"isabel-s2-t9-1%/nearest/points":   "5ea35b1495f34c10",
	"isabel-s2-t9-1%/rbf/box":          "9345d40509451efa",
	"isabel-s2-t9-1%/rbf/full":         "b70741ff5ced1ac1",
	"isabel-s2-t9-1%/rbf/points":       "23255377e467a469",
	"isabel-s2-t9-1%/shepard/box":      "4f7f3bf85efe1318",
	"isabel-s2-t9-1%/shepard/full":     "63c58c3e6f256818",
	"isabel-s2-t9-1%/shepard/points":   "e9a3fd6dc6816860",
	"isabel-s2-t9-3%/linear/box":       "b95a81d6d87101b7",
	"isabel-s2-t9-3%/linear/full":      "147395e20d2aabd0",
	"isabel-s2-t9-3%/linear/points":    "275f952788dd1448",
	"isabel-s2-t9-3%/natural/box":      "44ff033816eb89f8",
	"isabel-s2-t9-3%/natural/full":     "63a7ed0f3beee612",
	"isabel-s2-t9-3%/natural/points":   "f3a67d5ee3e51894",
	"isabel-s2-t9-3%/nearest/box":      "50ada65969e6d912",
	"isabel-s2-t9-3%/nearest/full":     "026d5871dd8c2281",
	"isabel-s2-t9-3%/nearest/points":   "652f8ee07d69c739",
	"isabel-s2-t9-3%/rbf/box":          "46734e73fd5081c2",
	"isabel-s2-t9-3%/rbf/full":         "a6dbbe1525e34e03",
	"isabel-s2-t9-3%/rbf/points":       "f4dab13071f0e9f5",
	"isabel-s2-t9-3%/shepard/box":      "06dd4aeb11d3e90e",
	"isabel-s2-t9-3%/shepard/full":     "b694ce3866ebd0de",
	"isabel-s2-t9-3%/shepard/points":   "df50a38ea5d3a6ea",
	"isabel-s3-t11-1%/linear/box":      "9b40ae96dc9daa9a",
	"isabel-s3-t11-1%/linear/full":     "2d12f4127f44846b",
	"isabel-s3-t11-1%/linear/points":   "ea1504064d526bdf",
	"isabel-s3-t11-1%/natural/box":     "30de04cdb89a3837",
	"isabel-s3-t11-1%/natural/full":    "b938eea1a0a12789",
	"isabel-s3-t11-1%/natural/points":  "f2a61c86d24cfdcd",
	"isabel-s3-t11-1%/nearest/box":     "c856dfd3c70fd266",
	"isabel-s3-t11-1%/nearest/full":    "8ff2c059784d8d59",
	"isabel-s3-t11-1%/nearest/points":  "b34790b0c4699150",
	"isabel-s3-t11-1%/rbf/box":         "f016e3cbf58af33d",
	"isabel-s3-t11-1%/rbf/full":        "3214a410265c071b",
	"isabel-s3-t11-1%/rbf/points":      "bb7d9f28ac16e559",
	"isabel-s3-t11-1%/shepard/box":     "f1dd48c414352918",
	"isabel-s3-t11-1%/shepard/full":    "613819613cea1ba0",
	"isabel-s3-t11-1%/shepard/points":  "97e3ae957a8b88c7",
	"isabel-s3-t11-5%/linear/box":      "0042306e474c2497",
	"isabel-s3-t11-5%/linear/full":     "2fd845af34b7118a",
	"isabel-s3-t11-5%/linear/points":   "ddc8a01cac6e4930",
	"isabel-s3-t11-5%/natural/box":     "fedfcc6bb660466d",
	"isabel-s3-t11-5%/natural/full":    "42fd48d15d3e48a0",
	"isabel-s3-t11-5%/natural/points":  "8af910559ba79749",
	"isabel-s3-t11-5%/nearest/box":     "137c3b73da02bb1b",
	"isabel-s3-t11-5%/nearest/full":    "45845f7cb8473b9e",
	"isabel-s3-t11-5%/nearest/points":  "7abaf3b105748efd",
	"isabel-s3-t11-5%/rbf/box":         "880d990712afd90c",
	"isabel-s3-t11-5%/rbf/full":        "61b6ae747a5e72f2",
	"isabel-s3-t11-5%/rbf/points":      "a0e5779d431d329a",
	"isabel-s3-t11-5%/shepard/box":     "0e2d19eb92feebba",
	"isabel-s3-t11-5%/shepard/full":    "335eb73a72aa2af2",
	"isabel-s3-t11-5%/shepard/points":  "fc536766ddbdafc4",
}

// pinCloud is one seeded Isabel-analog cloud of the pin set: the
// generator seed, the timestep and the importance-sampling fraction.
type pinCloud struct {
	seed int64
	t    int
	frac float64
}

var pinClouds = []pinCloud{
	{1, 7, 0.005}, {1, 7, 0.01}, {2, 9, 0.01}, {3, 11, 0.01}, {2, 9, 0.03}, {3, 11, 0.05},
}

// plan samples the cloud from the analog at divisor 4 (62×62×12, the
// perfbench grid) and returns a fresh plan over that grid.
func (pc pinCloud) plan(tb testing.TB) *recon.Plan {
	tb.Helper()
	gen := datasets.NewIsabel(pc.seed)
	nx, ny, nz := gen.DefaultDims(4)
	v := datasets.Volume(gen, nx, ny, nz, pc.t)
	c, _, err := (&sampling.Importance{Seed: pc.seed}).Sample(v, gen.FieldName(), pc.frac)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := recon.NewPlan(c, SpecOf(v))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// pinPoints returns the 300-point query list: grid nodes and off-grid
// points, alternating, drawn from a fixed stream.
func pinPoints(spec GridSpec) []mathutil.Vec3 {
	rng := mathutil.NewRNG(300)
	pts := make([]mathutil.Vec3, 300)
	for n := range pts {
		if n%2 == 0 {
			pts[n] = spec.Point(rng.Intn(spec.NX), rng.Intn(spec.NY), rng.Intn(spec.NZ))
			continue
		}
		pts[n] = mathutil.Vec3{
			X: spec.Origin.X + rng.Float64()*float64(spec.NX-1)*spec.Spacing.X,
			Y: spec.Origin.Y + rng.Float64()*float64(spec.NY-1)*spec.Spacing.Y,
			Z: spec.Origin.Z + rng.Float64()*float64(spec.NZ-1)*spec.Spacing.Z,
		}
	}
	return pts
}

func hashBits(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// baselineHashes runs linear, natural, shepard, nearest and rbf, as
// StandardRegistry(workers) configures them, over the full grid, an
// 8×8×4 box and the 300-point list of each pin cloud, one plan per
// cloud, and returns every output's hash by name.
func baselineHashes(t *testing.T, workers int) map[string]string {
	t.Helper()
	ctx := context.Background()
	reg := StandardRegistry(workers)
	out := map[string]string{}
	for _, pc := range pinClouds {
		p := pc.plan(t)
		spec := p.Spec()
		pts := pinPoints(spec)
		regions := []struct {
			name   string
			region recon.Region
		}{
			{"full", recon.Full(spec)},
			{"box", recon.Box(21, 34, 5, 29, 42, 9)},
			{"points", recon.PointList(pts)},
		}
		for _, name := range []string{"linear", "natural", "shepard", "nearest", "rbf"} {
			m, err := reg.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range regions {
				var vals []float64
				if r.region.IsPoints() {
					vals, err = recon.ReconstructPoints(ctx, m, p, r.region.Points)
				} else {
					var vol *grid.Volume
					if vol, err = recon.Reconstruct(ctx, m, p, r.region); err == nil {
						vals = vol.Data
					}
				}
				if err != nil {
					t.Fatalf("%s %s: %v", name, r.name, err)
				}
				key := fmt.Sprintf("isabel-s%d-t%d-%g%%/%s/%s", pc.seed, pc.t, 100*pc.frac, name, r.name)
				out[key] = hashBits(vals)
			}
		}
	}
	return out
}

// TestBaselineOutputsPinned hashes the outputs of the five rule-based
// baselines over six seeded Isabel-analog clouds (62×62×12, importance
// sampling at 0.5, 1, 3 and 5 %): the full grid, an 8×8×4 box and a
// 300-point list mixing grid nodes and off-grid points, at 1 and 2
// workers. Both worker counts must give the same bits, and on amd64
// those bits must be the pinned ones: the guard that a performance
// change to these methods moved no output bit.
func TestBaselineOutputsPinned(t *testing.T) {
	one := baselineHashes(t, 1)
	two := baselineHashes(t, 2)
	for key, h := range one {
		if two[key] != h {
			t.Errorf("%s: 1 worker %s, 2 workers %s", key, h, two[key])
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("pins are for amd64; %s checks only that 1 and 2 workers agree", runtime.GOARCH)
	}
	keys := make([]string, 0, len(one))
	for key := range one {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	bad := 0
	for _, key := range keys {
		if baselinePins[key] != one[key] {
			bad++
			t.Errorf("%s: hash %s, pinned %q", key, one[key], baselinePins[key])
		}
	}
	if len(baselinePins) != len(one) {
		t.Errorf("%d pins, %d outputs", len(baselinePins), len(one))
	}
	if bad > 0 || len(baselinePins) != len(one) {
		var b strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", key, one[key])
		}
		t.Logf("this tree's hashes:\n%s", b.String())
	}
}
