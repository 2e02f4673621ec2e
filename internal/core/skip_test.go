package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"fillvoid/internal/datasets"
	"fillvoid/internal/features"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
)

// goldenTrained is the repo benchmark's network shape (23→128, 64, 32,
// 16, 8→4) pretrained on the golden fixture's field, with its plan over
// the fixture's cloud; trainedGolden builds it once per test binary.
var goldenTrained struct {
	once sync.Once
	r    *FCNN
	p    *recon.Plan
	err  error
}

func trainedGolden(t testing.TB) (*FCNN, *recon.Plan) {
	t.Helper()
	g := &goldenTrained
	g.once.Do(func() {
		truth := datasets.Volume(datasets.NewIsabel(7), 32, 32, 10, 10)
		g.r, g.err = Pretrain(truth, "pressure", &sampling.Importance{Seed: 3}, Options{
			Hidden:         []int{128, 64, 32, 16, 8},
			Epochs:         30,
			TrainFractions: []float64{0.05},
			MaxTrainRows:   4000,
			BatchSize:      128,
			Seed:           11,
			Workers:        2,
		})
		if g.err != nil {
			return
		}
		cloud, _, err := (&sampling.Importance{Seed: 3}).Sample(truth, "pressure", 0.05)
		if err != nil {
			g.err = err
			return
		}
		g.p, g.err = recon.NewPlan(cloud, recon.SpecOf(truth))
	})
	if g.err != nil {
		t.Fatal(g.err)
	}
	return g.r, g.p
}

// voidRows returns the feature rows ReconstructRegion feeds the network
// for the region's void nodes, in region order.
func voidRows(t testing.TB, r *FCNN, p *recon.Plan, region recon.Region) *nn.Matrix {
	t.Helper()
	spec := p.Spec()
	ex, err := features.NewExtractorWithTree(r.opts.Features, p.Cloud(), p.Tree(), r.reconNormalizer(spec))
	if err != nil {
		t.Fatal(err)
	}
	_, nearD2, err := p.NearestFor(context.Background(), region, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps2 := spec.MinSpacing2() * 1e-12
	var qs []mathutil.Vec3
	for m, d2 := range nearD2 {
		if d2 > eps2 {
			qs = append(qs, region.PointAt(spec, m))
		}
	}
	return ex.Matrix(qs)
}

// predictTiles runs x through PredictInto in tiles of up to
// buf.MaxRows() rows into out and returns the pairs the masks skipped
// and the pairs there were.
func predictTiles(t testing.TB, net *nn.Network, x, out *nn.Matrix, buf *nn.InferenceBuffers) (skipped, pairs int) {
	for lo := 0; lo < x.Rows; lo += buf.MaxRows() {
		hi := min(lo+buf.MaxRows(), x.Rows)
		if err := net.PredictInto(x.SliceRows(lo, hi), out.SliceRows(lo, hi), buf); err != nil {
			t.Fatal(err)
		}
		s, p := buf.Skipped()
		skipped, pairs = skipped+s, pairs+p
	}
	return skipped, pairs
}

// TestSkipShareOnTrainedModel pins the share of (row block, input)
// pairs the column masks skip when a model trained on the golden
// fixture reconstructs the fixture's full grid in 512-row tiles, and
// checks that skipping moved no bit: the masked pass must equal, by
// Float64bits, an all-ones pass over the same rows. The all-ones pass
// runs the rows seven to a block of eight beside a row of NaN inputs;
// NaN reaches every column of every hidden layer, so every mask bit is
// set there and nothing is skipped. Only the avx512 kernel skips; on
// hosts without it the share is 0.
func TestSkipShareOnTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("pretrains a model")
	}
	r, p := trainedGolden(t)
	net := r.Network()
	x := voidRows(t, r, p, recon.Full(p.Spec()))
	masked := nn.NewMatrix(x.Rows, net.Config().Out)
	skipped, pairs := predictTiles(t, net, x, masked, net.NewInferenceBuffers(512))

	// The all-ones pass: seven rows of x, then a row of NaN.
	blocks := (x.Rows + 6) / 7
	xp := nn.NewMatrix(8*blocks, x.Cols)
	for r := 0; r < xp.Rows; r++ {
		row := xp.Row(r)
		if src := r/8*7 + r%8; r%8 < 7 && src < x.Rows {
			copy(row, x.Row(src))
		} else if r%8 == 7 {
			for c := range row {
				row[c] = math.NaN()
			}
		}
	}
	ones := nn.NewMatrix(xp.Rows, net.Config().Out)
	if s, _ := predictTiles(t, net, xp, ones, net.NewInferenceBuffers(512)); s != 0 {
		t.Fatalf("all-ones pass skipped %d pairs", s)
	}
	for r := 0; r < x.Rows; r++ {
		got, want := masked.Row(r), ones.Row(r/7*8+r%7)
		for c := range got {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("row %d output %d: masked %#x, all-ones %#x", r, c, math.Float64bits(got[c]), math.Float64bits(want[c]))
			}
		}
	}

	const wantSkipped, wantPairs = 141672, 301568
	t.Logf("%d void rows; skipped %d of %d pairs (%.1f %%) on %s",
		x.Rows, skipped, pairs, 100*float64(skipped)/float64(pairs), nn.HostKernels()[0])
	if pairs != wantPairs {
		t.Errorf("%d pairs, want %d", pairs, wantPairs)
	}
	want := 0
	if nn.HostKernels()[0] == "avx512" {
		want = wantSkipped
	}
	if skipped != want {
		t.Errorf("skipped %d pairs, want %d", skipped, want)
	}
}

// BenchmarkPredictIntoFCNNRows times PredictInto on real FCNN rows: the
// void feature rows of the golden fixture's full grid and of one 8×8×4
// box, through the model trained on it, in 512-row tiles on one buffer
// set, on the host's widest kernel. It reports ns/row and the percent
// of (row block, input) pairs the column masks skipped.
func BenchmarkPredictIntoFCNNRows(b *testing.B) {
	r, p := trainedGolden(b)
	net := r.Network()
	for _, bc := range []struct {
		name   string
		region recon.Region
	}{
		{"full-grid", recon.Full(p.Spec())},
		{"box-8x8x4", recon.Box(12, 12, 3, 20, 20, 7)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			x := voidRows(b, r, p, bc.region)
			out := nn.NewMatrix(x.Rows, net.Config().Out)
			buf := net.NewInferenceBuffers(512)
			skipped, pairs := predictTiles(b, net, x, out, buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				predictTiles(b, net, x, out, buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Rows), "ns/row")
			b.ReportMetric(100*float64(skipped)/float64(pairs), "%skipped")
		})
	}
}
