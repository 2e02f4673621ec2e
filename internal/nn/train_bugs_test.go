package nn

import (
	"math"
	"testing"

	"fillvoid/internal/telemetry"
)

// TestLRDecayAcrossTrainWithValidation: in a validated run the decay
// schedule fires on the lifetime epoch index. With LRDecayEvery=2 the
// applied rate must halve at lifetime epochs 2 and 4, and the observer
// must report the actually-applied rate.
func TestLRDecayAcrossTrainWithValidation(t *testing.T) {
	f := func(a, b float64) float64 { return a + b }
	x, y := makeRegression(64, 7, f)
	vx, vy := makeRegression(32, 8, f)
	net, err := New(Config{
		In: 2, Out: 1, Hidden: []int{8}, Seed: 1, BatchSize: 16,
		LRDecayEvery: 2, LRDecayFactor: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rates []float64
	net.SetObserver(telemetry.ObserverFunc(func(e telemetry.EpochStat) {
		rates = append(rates, e.LearningRate)
	}))
	if _, _, err := trainValidated(net, x, y, vx, vy, 6, 100); err != nil {
		t.Fatal(err)
	}
	base := 1e-3 // Adam default
	want := []float64{base, base, base / 2, base / 2, base / 4, base / 4}
	if len(rates) != len(want) {
		t.Fatalf("observed %d epochs, want %d", len(rates), len(want))
	}
	for i, w := range want {
		if math.Abs(rates[i]-w) > 1e-15 {
			t.Fatalf("epoch %d: reported lr %g, want %g (rates %v)", i, rates[i], w, rates)
		}
		if got := net.LearningRateAt(i); math.Abs(got-w) > 1e-15 {
			t.Fatalf("LearningRateAt(%d) = %g, want %g", i, got, w)
		}
	}
}

// TestLRDecayPersistsAcrossTrainEpochsCalls checks that slicing the same
// budget into several TrainEpochs calls (the fine-tuning pattern) walks
// the identical lifetime schedule instead of restarting at the base rate
// each call.
func TestLRDecayPersistsAcrossTrainEpochsCalls(t *testing.T) {
	x, y := makeRegression(48, 9, func(a, b float64) float64 { return a - b })
	net, err := New(Config{
		In: 2, Out: 1, Hidden: []int{8}, Seed: 2, BatchSize: 16,
		LRDecayEvery: 2, LRDecayFactor: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rates []float64
	net.SetObserver(telemetry.ObserverFunc(func(e telemetry.EpochStat) {
		rates = append(rates, e.LearningRate)
	}))
	for call := 0; call < 2; call++ {
		if _, err := net.TrainEpochs(x, y, 3); err != nil {
			t.Fatal(err)
		}
	}
	base := 1e-3
	want := []float64{base, base, base / 4, base / 4, base / 16, base / 16}
	if len(rates) != len(want) {
		t.Fatalf("observed %d epochs, want %d", len(rates), len(want))
	}
	for i, w := range want {
		if math.Abs(rates[i]-w) > 1e-18 {
			t.Fatalf("lifetime epoch %d: lr %g, want %g (rates %v)", i, rates[i], w, rates)
		}
	}
}

// TestEpochLossEqualsDatasetMSE pins the loss-accounting fix: with a
// partial final minibatch (rows % batch != 0), the recorded epoch loss
// must equal the true full-dataset MSE, which requires weighting each
// batch's mean by its row count. Freezing every layer keeps the weights
// constant so the per-batch losses and a post-hoc Predict/Loss pass see
// the same model.
func TestEpochLossEqualsDatasetMSE(t *testing.T) {
	x, y := makeRegression(100, 11, func(a, b float64) float64 { return 3*a - b })
	net, err := New(Config{In: 2, Out: 1, Hidden: []int{8}, Seed: 3, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.NumLayers(); i++ {
		if err := net.SetTrainable(i, false); err != nil {
			t.Fatal(err)
		}
	}
	losses, err := net.TrainEpochs(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Loss(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(losses[0]-want) / want; rel > 1e-9 {
		t.Fatalf("epoch loss %g, dataset MSE %g (rel err %g)", losses[0], want, rel)
	}
}

// TestTrainBatchSkipsEmptyShards pins the fix for a stale gradient: on
// 4 workers an 8-row batch fills every shard, but a 5-row batch fills
// only three (2, 2 and 1 rows). The fourth worker's scratch still holds
// the 8-row batch's gradient, and the reduction must not add it: the
// 5-row gradient has to equal one computed on fresh scratch. Every
// layer is frozen, so the first batch's step leaves the weights alone.
func TestTrainBatchSkipsEmptyShards(t *testing.T) {
	x, y := randomInput(8, 4, 1), randomInput(8, 1, 2)
	gradOf5 := func(warm bool) [][]float64 {
		n, err := New(Config{In: 4, Out: 1, Hidden: []int{4}, Seed: 3, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		n.FreezeAllButLast(0)
		scratch := make([]*trainScratch, 4)
		for w := range scratch {
			scratch[w] = n.newTrainScratch(2)
		}
		var gw, gb [][]float64
		for _, l := range n.layers {
			gw = append(gw, make([]float64, len(l.w)))
			gb = append(gb, make([]float64, len(l.b)))
		}
		if warm {
			n.trainBatch(x, y, scratch, gw, gb, 4, n.cfg.Adam, (*Network).shardGradient)
		}
		n.trainBatch(x.SliceRows(0, 5), y.SliceRows(0, 5), scratch, gw, gb, 4, n.cfg.Adam, (*Network).shardGradient)
		return gw
	}
	got, want := gradOf5(true), gradOf5(false)
	for li := range want {
		if e := sameBits(got[li], want[li]); e >= 0 {
			t.Fatalf("layer %d dW[%d] = %v after an 8-row batch, %v on fresh scratch", li, e, got[li][e], want[li][e])
		}
	}
}
