package nn

import (
	"math"
	"testing"

	"fillvoid/internal/mathutil"
)

// TestBackpropMatchesFiniteDifferences verifies the analytic gradients
// of the full network (through ReLU nonlinearities and all layers)
// against central finite differences of the loss. This is the
// definitive correctness test for the training engine.
func TestBackpropMatchesFiniteDifferences(t *testing.T) {
	cfg := Config{In: 3, Out: 2, Hidden: []int{5, 4}, Seed: 9, BatchSize: 8}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathutil.NewRNG(3)
	const batch = 8
	x := NewMatrix(batch, cfg.In)
	y := NewMatrix(batch, cfg.Out)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}

	// Analytic gradient via the internal shard machinery.
	scratch := net.newTrainScratch(batch)
	net.shardGradient(x, y, scratch, batch)

	// Loss as a function of the parameters.
	loss := func() float64 {
		pred, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Loss(pred, y)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// set writes one parameter as the network's own mutations do,
	// repacking the layer so the kernels read the new value.
	set := func(l *dense, p []float64, i int, v float64) {
		p[i] = v
		l.repack()
	}

	const h = 1e-6
	checked := 0
	for li, l := range net.layers {
		// Check a subset of weights and every bias to keep runtime low
		// while covering all layers.
		for wi := 0; wi < len(l.w); wi += 3 {
			orig := l.w[wi]
			set(l, l.w, wi, orig+h)
			up := loss()
			set(l, l.w, wi, orig-h)
			down := loss()
			set(l, l.w, wi, orig)
			numeric := (up - down) / (2 * h)
			analytic := scratch.gw[li][wi]
			if math.Abs(numeric-analytic) > 1e-4*(math.Abs(numeric)+math.Abs(analytic)+1e-4) {
				t.Fatalf("layer %d w[%d]: analytic %.8g vs numeric %.8g", li, wi, analytic, numeric)
			}
			checked++
		}
		for bi := range l.b {
			orig := l.b[bi]
			set(l, l.b, bi, orig+h)
			up := loss()
			set(l, l.b, bi, orig-h)
			down := loss()
			set(l, l.b, bi, orig)
			numeric := (up - down) / (2 * h)
			analytic := scratch.gb[li][bi]
			if math.Abs(numeric-analytic) > 1e-4*(math.Abs(numeric)+math.Abs(analytic)+1e-4) {
				t.Fatalf("layer %d b[%d]: analytic %.8g vs numeric %.8g", li, bi, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

// TestShardGradientSumsToBatchGradient verifies that splitting a batch
// into shards and summing the per-shard gradients reproduces the
// single-shard gradient — the invariant the data-parallel trainer
// relies on.
func TestShardGradientSumsToBatchGradient(t *testing.T) {
	cfg := Config{In: 4, Out: 1, Hidden: []int{6}, Seed: 2, BatchSize: 16}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathutil.NewRNG(8)
	const batch = 16
	x := NewMatrix(batch, cfg.In)
	y := NewMatrix(batch, cfg.Out)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}

	whole := net.newTrainScratch(batch)
	net.shardGradient(x, y, whole, batch)

	a := net.newTrainScratch(batch)
	b := net.newTrainScratch(batch)
	net.shardGradient(x.SliceRows(0, 7), y.SliceRows(0, 7), a, batch)
	net.shardGradient(x.SliceRows(7, batch), y.SliceRows(7, batch), b, batch)

	for li := range net.layers {
		for i := range whole.gw[li] {
			sum := a.gw[li][i] + b.gw[li][i]
			if math.Abs(sum-whole.gw[li][i]) > 1e-12*(math.Abs(sum)+1) {
				t.Fatalf("layer %d w[%d]: shards %.12g vs whole %.12g", li, i, sum, whole.gw[li][i])
			}
		}
		for i := range whole.gb[li] {
			sum := a.gb[li][i] + b.gb[li][i]
			if math.Abs(sum-whole.gb[li][i]) > 1e-12*(math.Abs(sum)+1) {
				t.Fatalf("layer %d b[%d]: shards %.12g vs whole %.12g", li, i, sum, whole.gb[li][i])
			}
		}
	}
}
