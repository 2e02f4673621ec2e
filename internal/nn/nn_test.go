package nn

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"fillvoid/internal/mathutil"
)

func testConfig() Config {
	return Config{In: 2, Out: 1, Hidden: []int{16, 8}, Seed: 1, BatchSize: 32}
}

// makeRegression builds a simple smooth regression dataset y = f(x).
func makeRegression(n int, seed int64, f func(a, b float64) float64) (*Matrix, *Matrix) {
	rng := mathutil.NewRNG(seed)
	x := NewMatrix(n, 2)
	y := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, f(a, b))
	}
	return x, y
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{In: 0, Out: 1}); err == nil {
		t.Fatal("accepted In=0")
	}
	if _, err := New(Config{In: 1, Out: 0}); err == nil {
		t.Fatal("accepted Out=0")
	}
	if _, err := New(Config{In: 1, Out: 1, Hidden: []int{0}}); err == nil {
		t.Fatal("accepted zero hidden width")
	}
}

func TestParamCount(t *testing.T) {
	n, err := New(Config{In: 3, Out: 2, Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	// (3*4 + 4) + (4*2 + 2) = 16 + 10 = 26
	if got := n.ParamCount(); got != 26 {
		t.Fatalf("params=%d", got)
	}
	if n.NumLayers() != 2 {
		t.Fatalf("layers=%d", n.NumLayers())
	}
}

func TestTrainingLearnsLinearFunction(t *testing.T) {
	x, y := makeRegression(2000, 3, func(a, b float64) float64 { return 0.3*a - 0.7*b + 0.2 })
	net, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	losses, err := net.TrainEpochs(x, y, 60)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] > losses[0]/10 {
		t.Fatalf("loss barely moved: %g -> %g", losses[0], losses[len(losses)-1])
	}
	pred, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := Loss(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 1e-3 {
		t.Fatalf("final mse %g too high for a linear target", mse)
	}
}

func TestTrainingLearnsNonlinearFunction(t *testing.T) {
	f := func(a, b float64) float64 { return math.Sin(3*a) * math.Cos(2*b) }
	x, y := makeRegression(3000, 5, f)
	net, err := New(Config{In: 2, Out: 1, Hidden: []int{32, 16, 8}, Seed: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.TrainEpochs(x, y, 120); err != nil {
		t.Fatal(err)
	}
	// Evaluate on held-out points.
	xt, yt := makeRegression(500, 99, f)
	pred, err := net.Predict(xt)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := Loss(pred, yt)
	if mse > 0.01 {
		t.Fatalf("held-out mse %g too high", mse)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	x, y := makeRegression(500, 7, func(a, b float64) float64 { return a * b })
	run := func() []float64 {
		net, err := New(Config{In: 2, Out: 1, Hidden: []int{8}, Seed: 11, BatchSize: 50, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		losses, err := net.TrainEpochs(x, y, 5)
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	l1 := run()
	l2 := run()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("epoch %d: %g != %g", i, l1[i], l2[i])
		}
	}
}

func TestPredictShapeValidation(t *testing.T) {
	net, _ := New(testConfig())
	if _, err := net.Predict(NewMatrix(3, 5)); err == nil {
		t.Fatal("accepted wrong input width")
	}
}

func TestTrainValidation(t *testing.T) {
	net, _ := New(testConfig())
	if _, err := net.TrainEpochs(NewMatrix(3, 2), NewMatrix(4, 1), 1); err == nil {
		t.Fatal("accepted row mismatch")
	}
	if _, err := net.TrainEpochs(NewMatrix(0, 2), NewMatrix(0, 1), 1); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, err := net.TrainEpochs(NewMatrix(3, 1), NewMatrix(3, 1), 1); err == nil {
		t.Fatal("accepted wrong x width")
	}
}

func TestFreezingStopsUpdates(t *testing.T) {
	x, y := makeRegression(200, 9, func(a, b float64) float64 { return a + b })
	net, err := New(Config{In: 2, Out: 1, Hidden: []int{8, 4}, Seed: 3, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	net.FreezeAllButLast(2)
	frozen := append([]float64(nil), net.layers[0].w...)
	if _, err := net.TrainEpochs(x, y, 3); err != nil {
		t.Fatal(err)
	}
	for i, w := range net.layers[0].w {
		if w != frozen[i] {
			t.Fatal("frozen layer weights changed")
		}
	}
	// Unfrozen layers must have changed.
	changed := false
	pre := append([]float64(nil), net.layers[2].w...)
	if _, err := net.TrainEpochs(x, y, 1); err != nil {
		t.Fatal(err)
	}
	for i, w := range net.layers[2].w {
		if w != pre[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("trainable layer did not change")
	}
	net.UnfreezeAll()
	if net.TrainableParamCount() != net.ParamCount() {
		t.Fatal("UnfreezeAll did not restore trainability")
	}
}

func TestTrainableParamCount(t *testing.T) {
	net, _ := New(Config{In: 2, Out: 1, Hidden: []int{8, 4}})
	total := net.ParamCount()
	net.FreezeAllButLast(2)
	lastTwo := net.TrainableParamCount()
	// last two layers: (8*4+4) + (4*1+1) = 36 + 5 = 41
	if lastTwo != 41 {
		t.Fatalf("trainable=%d", lastTwo)
	}
	if lastTwo >= total {
		t.Fatal("freezing did not reduce trainable count")
	}
}

func TestSetTrainableBounds(t *testing.T) {
	net, _ := New(testConfig())
	if err := net.SetTrainable(-1, true); err == nil {
		t.Fatal("accepted negative index")
	}
	if err := net.SetTrainable(99, true); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	if err := net.SetTrainable(0, false); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x, y := makeRegression(300, 13, func(a, b float64) float64 { return a - b })
	net, _ := New(testConfig())
	if _, err := net.TrainEpochs(x, y, 10); err != nil {
		t.Fatal(err)
	}
	net.FreezeAllButLast(1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("saving a loaded model changed its bytes")
	}
	p1, _ := net.Predict(x)
	p2, _ := loaded.Predict(x)
	for i := range p1.Data {
		if p1.Data[i] != p2.Data[i] {
			t.Fatal("reloaded model predicts differently")
		}
	}
	if len(loaded.Losses) != len(net.Losses) {
		t.Fatal("loss history not preserved")
	}
}

// TestSaveBytesPinned pins the FNV-1a hash of a seeded untrained
// network's bytes. The value was recorded from the canonical form model
// ids hashed before Save wrote it, so existing model ids stay valid.
func TestSaveBytesPinned(t *testing.T) {
	net, err := New(Config{In: 23, Out: 4, Hidden: []int{16, 8}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := net.Save(h); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "37dbbf4e600fee7b"; got != want {
		t.Fatalf("network bytes hash to %s, want %s", got, want)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestCloneIndependent(t *testing.T) {
	net, _ := New(testConfig())
	cp, err := net.Clone()
	if err != nil {
		t.Fatal(err)
	}
	x, y := makeRegression(100, 17, func(a, b float64) float64 { return a })
	if _, err := cp.TrainEpochs(x, y, 2); err != nil {
		t.Fatal(err)
	}
	// Original unchanged.
	p1, _ := net.Predict(x)
	orig, _ := New(testConfig())
	p2, _ := orig.Predict(x)
	for i := range p1.Data {
		if p1.Data[i] != p2.Data[i] {
			t.Fatal("clone training mutated the original")
		}
	}
}

func TestLossFunction(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	b.Data = []float64{1, 1, 1, 1}
	l, err := Loss(a, b)
	if err != nil || l != 1 {
		t.Fatalf("loss=%g err=%v", l, err)
	}
	if _, err := Loss(a, NewMatrix(3, 2)); err == nil {
		t.Fatal("accepted shape mismatch")
	}
	empty, err := Loss(NewMatrix(0, 0), NewMatrix(0, 0))
	if err != nil || empty != 0 {
		t.Fatalf("empty loss=%g err=%v", empty, err)
	}
}

func TestPyramidHidden(t *testing.T) {
	h := PyramidHidden(5, 512)
	if len(h) != 5 || h[0] != 512 {
		t.Fatalf("%v", h)
	}
	for i := 1; i < len(h); i++ {
		if h[i] > h[i-1] || h[i] < 4 {
			t.Fatalf("%v", h)
		}
	}
	if got := PyramidHidden(0, 64); len(got) != 1 {
		t.Fatalf("%v", got)
	}
	deep := PyramidHidden(9, 64)
	if deep[8] < 4 {
		t.Fatalf("%v", deep)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatal("At")
	}
	m.Set(1, 0, 9)
	if m.Row(1)[0] != 9 {
		t.Fatal("Set/Row")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone shares storage")
	}
	s := m.SliceRows(1, 2)
	if s.Rows != 1 || s.At(0, 0) != 9 {
		t.Fatal("SliceRows")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("accepted ragged rows")
	}
	if em, err := FromRows(nil); err != nil || em.Rows != 0 {
		t.Fatal("empty FromRows")
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	// Property: Adam steps reduce a simple quadratic loss f(p) = p^2
	// from any moderate starting point.
	f := func(start float64) bool {
		if math.IsNaN(start) || math.Abs(start) > 1e3 || math.Abs(start) < 1e-3 {
			return true
		}
		p := []float64{start}
		a := newAdam(1)
		cfg := AdamConfig{}.withDefaults()
		cfg.LearningRate = 0.05
		for i := 0; i < 500; i++ {
			g := []float64{2 * p[0]}
			a.step(p, g, cfg)
		}
		return math.Abs(p[0]) < math.Abs(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamReset(t *testing.T) {
	a := newAdam(2)
	a.step([]float64{1, 1}, []float64{1, 1}, AdamConfig{}.withDefaults())
	a.reset()
	if a.t != 0 || a.m[0] != 0 || a.v[0] != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestLRDecayApplied(t *testing.T) {
	// With aggressive decay, later epochs take much smaller steps; the
	// run must remain finite and the loss non-increasing overall.
	x, y := makeRegression(400, 21, func(a, b float64) float64 { return a - 2*b })
	net, err := New(Config{
		In: 2, Out: 1, Hidden: []int{8}, Seed: 4, BatchSize: 64,
		LRDecayEvery: 5, LRDecayFactor: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := net.TrainEpochs(x, y, 30)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not improve: %g -> %g", losses[0], losses[len(losses)-1])
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatal("non-finite loss with decay")
		}
	}
}

func TestTrainWithValidationEarlyStops(t *testing.T) {
	// Tiny training set + big capacity = quick overfitting; early
	// stopping must halt before the epoch budget and restore the best
	// validation weights.
	f := func(a, b float64) float64 { return math.Sin(5*a) - b }
	x, y := makeRegression(40, 31, f)
	vx, vy := makeRegression(400, 32, f)
	net, err := New(Config{In: 2, Out: 1, Hidden: []int{64, 32}, Seed: 5, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	trainL, valL, err := net.TrainWithValidation(x, y, vx, vy, 400, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(trainL) != len(valL) {
		t.Fatal("loss slices diverge")
	}
	if len(trainL) == 400 {
		t.Log("warning: ran the full budget (no early stop triggered)")
	}
	// The final (restored) weights must achieve the best recorded
	// validation loss.
	best := valL[0]
	for _, v := range valL {
		if v < best {
			best = v
		}
	}
	pred, err := net.Predict(vx)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Loss(pred, vy)
	if got > best*1.0001 {
		t.Fatalf("restored weights give val loss %g, best seen %g", got, best)
	}
}

func TestTrainWithValidationRejectsEmpty(t *testing.T) {
	net, _ := New(testConfig())
	x, y := makeRegression(10, 1, func(a, b float64) float64 { return a })
	if _, _, err := net.TrainWithValidation(x, y, NewMatrix(0, 2), NewMatrix(0, 1), 5, 2); err == nil {
		t.Fatal("accepted empty validation set")
	}
}

// BenchmarkTrainEpoch times one TrainEpochs epoch of the network the
// repo benchmark pretrains (23→128,64,32,16,8→4) on 8,000 rows at batch
// 256 with one worker, on every kernel the host has, reporting rows/s
// and GFLOP/s: two FLOPs per multiply-add of every layer's forward pass
// and weight gradient, and of every input gradient but the first
// layer's, which training skips.
func BenchmarkTrainEpoch(b *testing.B) {
	eachKernel(b, func(b *testing.B) {
		n, err := New(Config{In: 23, Out: 4, Hidden: []int{128, 64, 32, 16, 8}, Seed: 5, BatchSize: 256, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		const rows = 8000
		x, y := randomInput(rows, 23, 3), randomInput(rows, 4, 4)
		macs := 0
		for li, l := range n.layers {
			macs += 2 * l.in * l.out
			if li > 0 {
				macs += l.in * l.out
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := n.TrainEpochs(x, y, 1); err != nil {
				b.Fatal(err)
			}
		}
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(rows/secs, "rows/s")
		b.ReportMetric(2*float64(macs)*rows/secs/1e9, "GFLOP/s")
	})
}
