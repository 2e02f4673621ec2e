package nn

import (
	"math"
	"testing"

	"fillvoid/internal/telemetry"
)

// fakeObserver records every epoch stat the training loop emits.
type fakeObserver struct {
	stats []telemetry.EpochStat
}

func (f *fakeObserver) ObserveEpoch(e telemetry.EpochStat) { f.stats = append(f.stats, e) }

func TestTrainEpochsObserver(t *testing.T) {
	x, y := makeRegression(600, 9, func(a, b float64) float64 { return a + b })
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	obs := &fakeObserver{}
	net.SetObserver(obs)
	if net.Observer() != obs {
		t.Fatal("Observer() did not return the installed observer")
	}

	const first = 10
	losses, err := net.TrainEpochs(x, y, first)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.stats) != first {
		t.Fatalf("observed %d epochs, want %d", len(obs.stats), first)
	}
	for i, e := range obs.stats {
		if e.Epoch != i {
			t.Fatalf("stat %d has epoch index %d (want monotone from 0)", i, e.Epoch)
		}
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			t.Fatalf("epoch %d: non-finite loss %g", i, e.Loss)
		}
		if e.Loss != losses[i] {
			t.Fatalf("epoch %d: observer loss %g != returned loss %g", i, e.Loss, losses[i])
		}
		if e.Examples != x.Rows {
			t.Fatalf("epoch %d: examples = %d, want %d", i, e.Examples, x.Rows)
		}
		if e.LearningRate <= 0 {
			t.Fatalf("epoch %d: lr = %g", i, e.LearningRate)
		}
		if e.TrainableParams != net.TrainableParamCount() {
			t.Fatalf("epoch %d: trainable params = %d, want %d", i, e.TrainableParams, net.TrainableParamCount())
		}
		if e.DurationNS < 0 || e.ExamplesPerSec < 0 {
			t.Fatalf("epoch %d: negative timing (%d ns, %g ex/s)", i, e.DurationNS, e.ExamplesPerSec)
		}
		if e.ValLossValid {
			t.Fatalf("epoch %d: validation flag set by plain TrainEpochs", i)
		}
	}

	// A second training round (the fine-tune path) must keep the epoch
	// index monotone rather than restarting at zero.
	const second = 5
	if _, err := net.TrainEpochs(x, y, second); err != nil {
		t.Fatal(err)
	}
	if len(obs.stats) != first+second {
		t.Fatalf("observed %d epochs total, want %d", len(obs.stats), first+second)
	}
	for i := 1; i < len(obs.stats); i++ {
		if obs.stats[i].Epoch != obs.stats[i-1].Epoch+1 {
			t.Fatalf("epoch indices not monotone at %d: %d then %d",
				i, obs.stats[i-1].Epoch, obs.stats[i].Epoch)
		}
	}
	if got := obs.stats[first].Epoch; got != first {
		t.Fatalf("second round started at epoch %d, want %d", got, first)
	}
}

func TestTrainWithValidationObserver(t *testing.T) {
	f := func(a, b float64) float64 { return a * b }
	x, y := makeRegression(600, 21, f)
	vx, vy := makeRegression(120, 22, f)
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	obs := &fakeObserver{}
	net.SetObserver(obs)

	const epochs = 8
	tl, err := net.TrainEpochsOpts(x, y, epochs, RunOptions{Validation: &Validation{X: vx, Y: vy, Patience: epochs}})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one stat per completed epoch, carrying that epoch's
	// training and validation losses.
	if len(obs.stats) != len(tl) {
		t.Fatalf("observed %d stats for %d epochs", len(obs.stats), len(tl))
	}
	for i, e := range obs.stats {
		if e.Epoch != i {
			t.Fatalf("stat %d has epoch index %d", i, e.Epoch)
		}
		if !e.ValLossValid {
			t.Fatalf("epoch %d: missing validation loss", i)
		}
		if e.Loss != tl[i] {
			t.Fatalf("epoch %d: observer loss %g != returned %g", i, e.Loss, tl[i])
		}
		if math.IsNaN(e.Loss) || math.IsNaN(e.ValLoss) {
			t.Fatalf("epoch %d: non-finite losses %g/%g", i, e.Loss, e.ValLoss)
		}
	}
	// A validated run leaves the installed observer in place.
	if net.Observer() != obs {
		t.Fatal("observer lost after a validated run")
	}
}

func TestTrainSeriesAsNetworkObserver(t *testing.T) {
	x, y := makeRegression(300, 31, func(a, b float64) float64 { return a - b })
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	net.SetObserver(reg.Train("fit"))
	if _, err := net.TrainEpochs(x, y, 4); err != nil {
		t.Fatal(err)
	}
	eps := reg.Train("fit").Epochs()
	if len(eps) != 4 {
		t.Fatalf("series recorded %d epochs, want 4", len(eps))
	}
	snap := reg.Snapshot()
	if got := len(snap.Training["fit"]); got != 4 {
		t.Fatalf("snapshot training series has %d epochs", got)
	}
}
