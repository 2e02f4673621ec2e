// Package sampling implements the in situ data-reduction samplers that
// produce the unstructured point clouds fillvoid reconstructs from. The
// primary sampler reimplements the multi-criteria importance method of
// Biswas et al. (IEEE TVCG 2020), the sampler the paper uses for all its
// experiments: points are weighted by how rare their value is (histogram
// criterion) and how strong the local gradient is (feature criterion),
// and a fixed storage budget is drawn without replacement with
// probability proportional to that importance. Random and stratified
// samplers are provided as baselines.
package sampling

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
)

// Sampler selects a subset of a volume's grid points.
type Sampler interface {
	// Name identifies the sampler in experiment output.
	Name() string
	// Sample returns a point cloud holding round(fraction * N) grid
	// points of v (0 < fraction <= 1) with their scalar values, and the
	// flat indices of the selected points.
	Sample(v *grid.Volume, fieldName string, fraction float64) (*pointcloud.Cloud, []int, error)
}

// budgetFor converts a sampling fraction to a point budget, clamped to
// [1, N].
func budgetFor(n int, fraction float64) (int, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("sampling: fraction %g outside (0, 1]", fraction)
	}
	b := int(math.Round(fraction * float64(n)))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b, nil
}

// cloudFromIndices assembles the output cloud for chosen flat indices.
func cloudFromIndices(v *grid.Volume, fieldName string, idxs []int) *pointcloud.Cloud {
	sort.Ints(idxs)
	c := pointcloud.New(fieldName, len(idxs))
	for _, idx := range idxs {
		c.Add(v.PointAt(idx), v.Data[idx])
	}
	return c
}

// Random samples grid points uniformly without replacement.
type Random struct {
	Seed int64
}

// Name implements Sampler.
func (s *Random) Name() string { return "random" }

// Sample implements Sampler using a partial Fisher-Yates shuffle.
func (s *Random) Sample(v *grid.Volume, fieldName string, fraction float64) (*pointcloud.Cloud, []int, error) {
	n := v.Len()
	budget, err := budgetFor(n, fraction)
	if err != nil {
		return nil, nil, err
	}
	rng := mathutil.NewRNG(s.Seed)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < budget; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	idxs := append([]int(nil), perm[:budget]...)
	return cloudFromIndices(v, fieldName, idxs), idxs, nil
}

// Stratified divides the grid into Blocks^3 spatial strata and samples
// uniformly within each, guaranteeing spatial coverage (Woodring et al.
// style stratified random sampling).
type Stratified struct {
	Seed   int64
	Blocks int // strata per axis; defaults to 4
}

// Name implements Sampler.
func (s *Stratified) Name() string { return "stratified" }

// Sample implements Sampler.
func (s *Stratified) Sample(v *grid.Volume, fieldName string, fraction float64) (*pointcloud.Cloud, []int, error) {
	n := v.Len()
	budget, err := budgetFor(n, fraction)
	if err != nil {
		return nil, nil, err
	}
	blocks := s.Blocks
	if blocks < 1 {
		blocks = 4
	}
	// Assign each grid point to a stratum.
	strata := make([][]int, blocks*blocks*blocks)
	for idx := 0; idx < n; idx++ {
		i, j, k := v.Coords(idx)
		bi := i * blocks / v.NX
		bj := j * blocks / v.NY
		bk := k * blocks / v.NZ
		b := bi + blocks*(bj+blocks*bk)
		strata[b] = append(strata[b], idx)
	}
	rng := mathutil.NewRNG(s.Seed)
	var idxs []int
	remaining := budget
	nonEmpty := 0
	for _, st := range strata {
		if len(st) > 0 {
			nonEmpty++
		}
	}
	seen := 0
	for _, st := range strata {
		if len(st) == 0 {
			continue
		}
		seen++
		// Proportional allocation with exact total via largest remainder
		// over the running budget.
		var take int
		if seen == nonEmpty {
			take = remaining
		} else {
			take = int(math.Round(float64(budget) * float64(len(st)) / float64(n)))
		}
		if take > len(st) {
			take = len(st)
		}
		if take > remaining {
			take = remaining
		}
		for i := 0; i < take; i++ {
			j := i + rng.Intn(len(st)-i)
			st[i], st[j] = st[j], st[i]
		}
		idxs = append(idxs, st[:take]...)
		remaining -= take
	}
	// Top up from anywhere if rounding left budget unfilled.
	for remaining > 0 {
		idx := rng.Intn(n)
		idxs = append(idxs, idx)
		remaining--
	}
	idxs = dedupe(idxs)
	return cloudFromIndices(v, fieldName, idxs), idxs, nil
}

func dedupe(idxs []int) []int {
	sort.Ints(idxs)
	out := idxs[:0]
	prev := -1
	for _, x := range idxs {
		if x != prev {
			out = append(out, x)
			prev = x
		}
	}
	return out
}

// Importance is the Biswas et al. multi-criteria probabilistic sampler.
// Per-point importance combines value rarity and gradient magnitude:
//
//	w(i) = Floor + Alpha * rarity(value_i) + (1-Alpha) * |∇f|_i / max|∇f|
//
// where rarity is 1 - log(1+count(bin_i))/log(1+maxCount) over a Bins
// -bucket value histogram (rare values — the hurricane eye, the flame
// sheet, the ionization shell — get weight near 1). The budget is drawn
// without replacement with probability proportional to w via the
// Efraimidis–Spirakis weighted reservoir (key u^(1/w), keep top-k),
// which hits the storage budget exactly in one pass.
type Importance struct {
	Seed int64
	// Bins is the value-histogram resolution; defaults to 64.
	Bins int
	// Alpha balances rarity vs gradient in [0, 1]; defaults to 0.5.
	Alpha float64
	// Floor is the uniform base weight guaranteeing smooth regions
	// still receive samples; defaults to 0.05.
	Floor float64
}

// Name implements Sampler.
func (s *Importance) Name() string { return "importance" }

// Sample implements Sampler.
func (s *Importance) Sample(v *grid.Volume, fieldName string, fraction float64) (*pointcloud.Cloud, []int, error) {
	n := v.Len()
	budget, err := budgetFor(n, fraction)
	if err != nil {
		return nil, nil, err
	}
	w := s.Weights(v)
	idxs := WeightedTopK(w, budget, s.Seed)
	return cloudFromIndices(v, fieldName, idxs), idxs, nil
}

// Weights returns the per-point importance weights (exposed for tests
// and for the sampler-analysis tooling).
func (s *Importance) Weights(v *grid.Volume) []float64 {
	bins := s.Bins
	if bins < 1 {
		bins = 64
	}
	alpha := s.Alpha
	if alpha < 0 || alpha > 1 {
		alpha = 0.5
	}
	floor := s.Floor
	if floor <= 0 {
		floor = 0.05
	}

	n := v.Len()
	st := v.Stats()
	lo, hi := st.Min(), st.Max()
	//lint:allow floateq: degenerate-range guard; only a bit-identical min==max field needs widening
	if hi == lo {
		hi = lo + 1
	}
	binW := (hi - lo) / float64(bins)

	binOf := func(x float64) int {
		b := int((x - lo) / binW)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		return b
	}

	counts := make([]int, bins)
	for _, x := range v.Data {
		counts[binOf(x)]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	logMax := math.Log1p(float64(maxCount))

	gm := v.GradientMagnitudeField()
	gMax := 0.0
	for _, g := range gm.Data {
		if g > gMax {
			gMax = g
		}
	}
	if gMax == 0 {
		gMax = 1
	}

	w := make([]float64, n)
	parallel.For(n, 0, func(i int) {
		rarity := 1.0
		if logMax > 0 {
			rarity = 1 - math.Log1p(float64(counts[binOf(v.Data[i])]))/logMax
		}
		grad := gm.Data[i] / gMax
		w[i] = floor + alpha*rarity + (1-alpha)*grad
	})
	return w
}

// WeightedTopK draws k indices without replacement with probability
// proportional to w, deterministically for a seed. Every uniform u is
// drawn from the one stream mathutil.NewRNG(seed) in index order, so
// the same (w, k, seed) selects the same indices at any core count;
// only the keys u^(1/w) are computed in parallel. Selection keeps the k
// largest keys with a min-heap.
func WeightedTopK(w []float64, k int, seed int64) []int {
	n := len(w)
	if k >= n {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return idxs
	}
	keys := make([]float64, n)
	rng := mathutil.NewRNG(seed)
	for i := range keys {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[i] = u
	}
	parallel.ForChunked(n, 0, func(start, end int) {
		for i := start; i < end; i++ {
			wi := w[i]
			if wi <= 0 {
				wi = 1e-12
			}
			keys[i] = math.Pow(keys[i], 1/wi)
		}
	})
	h := &minKeyHeap{}
	heap.Init(h)
	for i := 0; i < n; i++ {
		if h.Len() < k {
			heap.Push(h, keyed{keys[i], i})
		} else if keys[i] > (*h)[0].key {
			(*h)[0] = keyed{keys[i], i}
			heap.Fix(h, 0)
		}
	}
	idxs := make([]int, h.Len())
	for i := range idxs {
		idxs[i] = (*h)[i].idx
	}
	return idxs
}

type keyed struct {
	key float64
	idx int
}

type minKeyHeap []keyed

func (h minKeyHeap) Len() int           { return len(h) }
func (h minKeyHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h minKeyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minKeyHeap) Push(x any)        { *h = append(*h, x.(keyed)) }
func (h *minKeyHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// VoidIndices returns the flat indices of v's grid points NOT present in
// sampledIdxs (which must be sorted ascending, as returned by Sample).
// These are the paper's "void locations" — the reconstruction targets.
func VoidIndices(v *grid.Volume, sampledIdxs []int) []int {
	n := v.Len()
	void := make([]int, 0, n-len(sampledIdxs))
	s := 0
	for i := 0; i < n; i++ {
		if s < len(sampledIdxs) && sampledIdxs[s] == i {
			s++
			continue
		}
		void = append(void, i)
	}
	return void
}

// ByName constructs a sampler by name: importance, random, stratified.
func ByName(name string, seed int64) (Sampler, error) {
	switch name {
	case "importance":
		return &Importance{Seed: seed}, nil
	case "random":
		return &Random{Seed: seed}, nil
	case "stratified":
		return &Stratified{Seed: seed}, nil
	default:
		return nil, fmt.Errorf("sampling: unknown sampler %q", name)
	}
}
