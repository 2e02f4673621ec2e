package sampling

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
)

func testVolume() *grid.Volume {
	gen := datasets.NewIsabel(1)
	return datasets.Volume(gen, 24, 24, 8, 5)
}

func allSamplers(seed int64) []Sampler {
	return []Sampler{
		&Random{Seed: seed},
		&Stratified{Seed: seed},
		&Importance{Seed: seed},
	}
}

func TestSamplersHitExactBudget(t *testing.T) {
	v := testVolume()
	for _, s := range allSamplers(9) {
		for _, frac := range []float64{0.001, 0.01, 0.05, 0.5, 1.0} {
			c, idxs, err := s.Sample(v, "pressure", frac)
			if err != nil {
				t.Fatalf("%s @ %g: %v", s.Name(), frac, err)
			}
			want := int(math.Round(frac * float64(v.Len())))
			if want < 1 {
				want = 1
			}
			if c.Len() != want || len(idxs) != want {
				t.Fatalf("%s @ %g: got %d points, want %d", s.Name(), frac, c.Len(), want)
			}
		}
	}
}

func TestSamplersRejectBadFraction(t *testing.T) {
	v := testVolume()
	for _, s := range allSamplers(1) {
		for _, frac := range []float64{0, -0.5, 1.5} {
			if _, _, err := s.Sample(v, "f", frac); err == nil {
				t.Fatalf("%s accepted fraction %g", s.Name(), frac)
			}
		}
	}
}

func TestSampledIndicesValid(t *testing.T) {
	v := testVolume()
	for _, s := range allSamplers(17) {
		_, idxs, err := s.Sample(v, "pressure", 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(idxs) {
			t.Fatalf("%s: indices not sorted", s.Name())
		}
		for i := 1; i < len(idxs); i++ {
			if idxs[i] == idxs[i-1] {
				t.Fatalf("%s: duplicate index %d", s.Name(), idxs[i])
			}
		}
		for _, idx := range idxs {
			if idx < 0 || idx >= v.Len() {
				t.Fatalf("%s: index %d out of range", s.Name(), idx)
			}
		}
	}
}

func TestCloudMatchesVolumeValues(t *testing.T) {
	v := testVolume()
	for _, s := range allSamplers(23) {
		c, idxs, err := s.Sample(v, "pressure", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range idxs {
			if c.Values[i] != v.Data[idx] {
				t.Fatalf("%s: value mismatch at %d", s.Name(), i)
			}
			if c.Points[i] != v.PointAt(idx) {
				t.Fatalf("%s: position mismatch at %d", s.Name(), i)
			}
		}
	}
}

func TestSamplersDeterministic(t *testing.T) {
	v := testVolume()
	for _, name := range []string{"random", "stratified", "importance"} {
		s1, err := ByName(name, 77)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := ByName(name, 77)
		_, i1, err := s1.Sample(v, "f", 0.02)
		if err != nil {
			t.Fatal(err)
		}
		_, i2, _ := s2.Sample(v, "f", 0.02)
		if len(i1) != len(i2) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range i1 {
			if i1[i] != i2[i] {
				t.Fatalf("%s: not deterministic", name)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("bogus", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestVoidIndicesPartition(t *testing.T) {
	v := testVolume()
	_, idxs, err := (&Importance{Seed: 5}).Sample(v, "f", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	void := VoidIndices(v, idxs)
	if len(void)+len(idxs) != v.Len() {
		t.Fatalf("partition sizes: %d + %d != %d", len(void), len(idxs), v.Len())
	}
	seen := make(map[int]bool, v.Len())
	for _, i := range idxs {
		seen[i] = true
	}
	for _, i := range void {
		if seen[i] {
			t.Fatalf("index %d in both sets", i)
		}
		seen[i] = true
	}
	if len(seen) != v.Len() {
		t.Fatal("partition does not cover the grid")
	}
}

func TestImportanceWeightsFavorFeatures(t *testing.T) {
	// A field that is zero everywhere except one sharp Gaussian bump:
	// the bump region (rare values + high gradient) must receive much
	// higher average importance than the flat background.
	v := grid.New(20, 20, 20)
	c := mathutil.Vec3{X: 10, Y: 10, Z: 10}
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 {
		p := mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)}
		return 100 * math.Exp(-p.Sub(c).Norm2()/4)
	})
	s := &Importance{Seed: 1}
	w := s.Weights(v)
	bumpStats := mathutil.NewRunningStats()
	flatStats := mathutil.NewRunningStats()
	for idx := 0; idx < v.Len(); idx++ {
		p := v.PointAt(idx)
		if p.Sub(c).Norm() < 4 {
			bumpStats.Add(w[idx])
		} else if p.Sub(c).Norm() > 8 {
			flatStats.Add(w[idx])
		}
	}
	if bumpStats.Mean() < 2*flatStats.Mean() {
		t.Fatalf("bump weight %.3f not >> flat weight %.3f", bumpStats.Mean(), flatStats.Mean())
	}
}

func TestImportanceSamplingPreservesFeature(t *testing.T) {
	// At 2% sampling, the bump region (0.8% of the volume) should be
	// sampled at a much higher rate than the background.
	v := grid.New(20, 20, 20)
	c := mathutil.Vec3{X: 10, Y: 10, Z: 10}
	v.Fill(func(i, j, k int, _ mathutil.Vec3) float64 {
		p := mathutil.Vec3{X: float64(i), Y: float64(j), Z: float64(k)}
		return 100 * math.Exp(-p.Sub(c).Norm2()/4)
	})
	_, idxs, err := (&Importance{Seed: 4}).Sample(v, "f", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	inBump := 0
	for _, idx := range idxs {
		if v.PointAt(idx).Sub(c).Norm() < 4 {
			inBump++
		}
	}
	bumpVoxels := 0
	for idx := 0; idx < v.Len(); idx++ {
		if v.PointAt(idx).Sub(c).Norm() < 4 {
			bumpVoxels++
		}
	}
	rateBump := float64(inBump) / float64(bumpVoxels)
	rateAll := float64(len(idxs)) / float64(v.Len())
	if rateBump < 3*rateAll {
		t.Fatalf("bump sampling rate %.4f not >> overall %.4f", rateBump, rateAll)
	}
}

func TestStratifiedCoverage(t *testing.T) {
	// Every occupied stratum should receive at least one sample at a
	// sufficient budget.
	v := testVolume()
	s := &Stratified{Seed: 3, Blocks: 2}
	_, idxs, err := s.Sample(v, "f", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[int]bool)
	for _, idx := range idxs {
		i, j, k := v.Coords(idx)
		b := (i * 2 / v.NX) + 2*((j*2/v.NY)+2*(k*2/v.NZ))
		hit[b] = true
	}
	if len(hit) != 8 {
		t.Fatalf("only %d/8 strata sampled", len(hit))
	}
}

func TestWeightedTopKProperties(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := mathutil.NewRNG(seed)
		n := 100
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		k := int(kRaw)%n + 1
		idxs := WeightedTopK(w, k, seed)
		if len(idxs) != k {
			return false
		}
		seen := map[int]bool{}
		for _, i := range idxs {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedTopKAll(t *testing.T) {
	w := []float64{1, 2, 3}
	idxs := WeightedTopK(w, 5, 0)
	if len(idxs) != 3 {
		t.Fatalf("got %d", len(idxs))
	}
}

// withProcs runs fn with runtime.GOMAXPROCS set to procs and restores
// the previous value afterwards.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// The sampled cloud must not depend on the host: the same seed selects
// the same indices whatever the core count.
func TestImportanceSampleSameAtAnyCoreCount(t *testing.T) {
	v := testVolume()
	s := &Importance{Seed: 3}
	var one, four []int
	var err1, err4 error
	withProcs(1, func() { _, one, err1 = s.Sample(v, "f", 0.05) })
	withProcs(4, func() { _, four, err4 = s.Sample(v, "f", 0.05) })
	if err1 != nil || err4 != nil {
		t.Fatal(err1, err4)
	}
	if len(one) != len(four) {
		t.Fatalf("GOMAXPROCS 1 sampled %d points, 4 sampled %d", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("index %d: GOMAXPROCS 1 sampled %d, 4 sampled %d", i, one[i], four[i])
		}
	}
}

// oneStreamTopK is the Efraimidis–Spirakis draw written out serially:
// every u from the one stream NewRNG(seed) in index order, key u^(1/w),
// and the k largest keys. It fails the test when the k-th and (k+1)-th
// keys tie, since the selected set would then not be unique.
func oneStreamTopK(t *testing.T, w []float64, k int, seed int64) []int {
	t.Helper()
	rng := mathutil.NewRNG(seed)
	order := make([]int, len(w))
	keys := make([]float64, len(w))
	for i, wi := range w {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		if wi <= 0 {
			wi = 1e-12
		}
		keys[i] = math.Pow(u, 1/wi)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	if keys[order[k-1]] == keys[order[k]] {
		t.Fatalf("reference keys tie at the cut (k=%d)", k)
	}
	idxs := append([]int(nil), order[:k]...)
	sort.Ints(idxs)
	return idxs
}

// WeightedTopK must select exactly what the one-stream serial draw
// selects, at one core and at four: the keys' parallel evaluation may
// not change which uniforms feed which index, and a 1-core run keeps the
// bits it always had.
func TestWeightedTopKMatchesOneStreamDraw(t *testing.T) {
	w := (&Importance{}).Weights(testVolume())
	for _, k := range []int{1, 46, 230, 1000} {
		want := oneStreamTopK(t, w, k, 42)
		for _, procs := range []int{1, 4} {
			var got []int
			withProcs(procs, func() { got = WeightedTopK(w, k, 42) })
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("k=%d GOMAXPROCS=%d: got %d indices", k, procs, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d GOMAXPROCS=%d: index %d is %d, one-stream draw has %d", k, procs, i, got[i], want[i])
				}
			}
		}
	}
}
