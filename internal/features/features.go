// Package features implements the paper's feature engineering (Section
// III-D): for each void location, the input is a [1×23] vector — the
// x, y, z coordinates and scalar values of the five nearest sampled
// points (20 numbers) plus the void location's own x, y, z — and the
// training target is a [1×4] vector holding the scalar value and its
// x/y/z gradients. Coordinates and values are min-max normalized so the
// network trains on O(1) quantities regardless of the dataset's units;
// the Normalizer is part of the trained model and must be reused at
// inference and fine-tuning time.
package features

import (
	"context"
	"errors"
	"fmt"
	"math"

	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// Config controls feature extraction.
type Config struct {
	// K is the number of nearest sampled points per feature vector; the
	// paper uses 5.
	K int
	// WithGradients includes the three gradient components in the
	// target (the paper's default; Fig 8 ablates it off).
	WithGradients bool
}

// DefaultConfig returns the paper's configuration: K = 5, gradients on.
func DefaultConfig() Config { return Config{K: 5, WithGradients: true} }

// InputWidth returns the feature-vector length: 4K + 3 (23 for K = 5).
func (c Config) InputWidth() int { return 4*c.K + 3 }

// OutputWidth returns the target length: 4 with gradients, 1 without.
func (c Config) OutputWidth() int {
	if c.WithGradients {
		return 4
	}
	return 1
}

// Normalizer min-max scales world coordinates and scalar values into
// [0, 1] (gradients are scaled consistently: value units per unit of
// normalized coordinate, times a fitted balance factor).
type Normalizer struct {
	PosMin   mathutil.Vec3
	PosScale mathutil.Vec3 // multiplicative: norm = (p - PosMin) * PosScale
	ValMin   float64
	ValScale float64 // multiplicative: norm = (v - ValMin) * ValScale
	// GradScale balances the gradient components of the target against
	// the value component so neither dominates the MSE (sharp fields
	// have normalized gradients orders of magnitude above 1, which
	// would otherwise drown out the value loss). 0 means unfitted and
	// is treated as 1. Fitted once at pretraining and kept for all
	// fine-tuning so the target semantics never shift under the model.
	GradScale float64
}

// NewNormalizer fits a normalizer to the given spatial bounds and value
// range. Degenerate ranges get scale 1 so normalization stays finite.
func NewNormalizer(bounds mathutil.AABB, valMin, valMax float64) *Normalizer {
	inv := func(d float64) float64 {
		if d <= 0 {
			return 1
		}
		return 1 / d
	}
	size := bounds.Size()
	return &Normalizer{
		PosMin: bounds.Min,
		PosScale: mathutil.Vec3{
			X: inv(size.X), Y: inv(size.Y), Z: inv(size.Z),
		},
		ValMin:   valMin,
		ValScale: inv(valMax - valMin),
	}
}

// NormalizerFor fits a normalizer from a sampled cloud and the grid it
// will be reconstructed onto: spatial bounds from the grid (so sampled
// and void coordinates share one frame), value range from the samples
// (the only values available in situ).
func NormalizerFor(c *pointcloud.Cloud, bounds mathutil.AABB) *Normalizer {
	lo, hi := c.ValueRange()
	return NewNormalizer(bounds, lo, hi)
}

// Point maps a world position into normalized coordinates.
func (n *Normalizer) Point(p mathutil.Vec3) mathutil.Vec3 {
	return mathutil.Vec3{
		X: (p.X - n.PosMin.X) * n.PosScale.X,
		Y: (p.Y - n.PosMin.Y) * n.PosScale.Y,
		Z: (p.Z - n.PosMin.Z) * n.PosScale.Z,
	}
}

// Value maps a scalar into [0, 1] (samples outside the fitted range map
// slightly outside, which is fine for regression).
func (n *Normalizer) Value(v float64) float64 { return (v - n.ValMin) * n.ValScale }

// Denorm maps a normalized prediction back to data units.
func (n *Normalizer) Denorm(v float64) float64 { return v/n.ValScale + n.ValMin }

// Gradient maps a world-units gradient into normalized units
// (normalized value per normalized coordinate, times GradScale).
func (n *Normalizer) Gradient(g mathutil.Vec3) mathutil.Vec3 {
	gs := n.GradScale
	if gs == 0 {
		gs = 1
	}
	return mathutil.Vec3{
		X: g.X * gs * n.ValScale / n.PosScale.X,
		Y: g.Y * gs * n.ValScale / n.PosScale.Y,
		Z: g.Z * gs * n.ValScale / n.PosScale.Z,
	}
}

// FitGradScale sets GradScale so the RMS of the normalized gradient
// components matches targetRMS (the typical spread of the value
// component). It samples the gradients of truth at the given indices.
// A field with zero gradient everywhere leaves GradScale at 1.
func (n *Normalizer) FitGradScale(truth *grid.Volume, idxs []int, targetRMS float64) {
	n.GradScale = 1
	if len(idxs) == 0 || targetRMS <= 0 {
		return
	}
	sum := 0.0
	for _, idx := range idxs {
		i, j, k := truth.Coords(idx)
		g := n.Gradient(truth.GradientAt(i, j, k))
		sum += g.Norm2()
	}
	rms := math.Sqrt(sum / float64(3*len(idxs)))
	if rms > 0 {
		n.GradScale = targetRMS / rms
	}
}

// Extractor computes feature vectors against one sampled cloud. Build
// it once per cloud; extraction methods are safe for concurrent use.
type Extractor struct {
	cfg   Config
	cloud *pointcloud.Cloud
	tree  *kdtree.Tree
	norm  *Normalizer
}

// NewExtractor indexes the cloud. The cloud must contain at least K
// points and pass pointcloud.Cloud.Validate: a non-finite coordinate
// would corrupt the k-d tree it builds.
func NewExtractor(cfg Config, c *pointcloud.Cloud, norm *Normalizer) (*Extractor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("features: K must be >= 1, got %d", cfg.K)
	}
	if c.Len() < cfg.K {
		return nil, fmt.Errorf("features: cloud has %d points, need >= K = %d", c.Len(), cfg.K)
	}
	if norm == nil {
		return nil, errors.New("features: nil normalizer")
	}
	reg := telemetry.Default()
	_, sp := reg.Start(context.TODO(), "features/knn-build")
	tree := kdtree.Build(c.Points)
	sp.End()
	reg.Counter("features.knn_tables_built").Inc()
	reg.Counter("features.knn_indexed_points").Add(int64(c.Len()))
	return &Extractor{cfg: cfg, cloud: c, tree: tree, norm: norm}, nil
}

// NewExtractorWithTree is NewExtractor over a pre-built k-d tree on the
// same cloud's points — used by the recon engine so every method sharing
// a query plan shares one spatial index instead of each extractor
// rebuilding its own. A tree over a different number of points is
// rejected: its neighbour indices would not address the cloud.
func NewExtractorWithTree(cfg Config, c *pointcloud.Cloud, tree *kdtree.Tree, norm *Normalizer) (*Extractor, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("features: K must be >= 1, got %d", cfg.K)
	}
	if c.Len() < cfg.K {
		return nil, fmt.Errorf("features: cloud has %d points, need >= K = %d", c.Len(), cfg.K)
	}
	if norm == nil {
		return nil, errors.New("features: nil normalizer")
	}
	if tree == nil {
		return nil, errors.New("features: nil tree")
	}
	if tree.Len() != c.Len() {
		return nil, fmt.Errorf("features: tree indexes %d points, cloud has %d", tree.Len(), c.Len())
	}
	return &Extractor{cfg: cfg, cloud: c, tree: tree, norm: norm}, nil
}

// Config returns the extractor's configuration.
func (e *Extractor) Config() Config { return e.cfg }

// Normalizer returns the fitted normalizer.
func (e *Extractor) Normalizer() *Normalizer { return e.norm }

// FeaturesInto writes the feature vector for query point q into dst
// (len InputWidth) using nbBuf as k-NN scratch.
func (e *Extractor) FeaturesInto(q mathutil.Vec3, dst []float64, nbBuf []kdtree.Neighbor) {
	e.Row(q, e.tree.KNearestInto(q, e.cfg.K, nbBuf), dst)
}

// Row writes the feature vector of query q into dst (len InputWidth),
// given q's K nearest samples nbs in kdtree's canonical order: exactly
// K entries, all indexing the extractor's cloud. It searches nothing,
// so callers that already hold the neighbour lists (the FCNN on the
// plan's neighbour pass) featurize without a second search; the row
// equals FeaturesInto's bit for bit.
func (e *Extractor) Row(q mathutil.Vec3, nbs []kdtree.Neighbor, dst []float64) {
	w := 0
	for _, nb := range nbs {
		p := e.norm.Point(e.cloud.Points[nb.Index])
		dst[w] = p.X
		dst[w+1] = p.Y
		dst[w+2] = p.Z
		dst[w+3] = e.norm.Value(e.cloud.Values[nb.Index])
		w += 4
	}
	qn := e.norm.Point(q)
	dst[w] = qn.X
	dst[w+1] = qn.Y
	dst[w+2] = qn.Z
}

// BuildBatch fills the first len(queries) rows of x with one feature
// vector per query on the calling goroutine, using nbBuf (cap >= K) as
// k-NN scratch: zero heap allocations per call. It runs the queries
// through the tree's warm-started batch search in runs of cap(nbBuf)/K,
// so a larger nbBuf gives neighbouring queries more warm starts; rows
// are bit-identical to FeaturesInto's whatever its size. It is the
// per-chunk primitive of the fused inference path — each
// reconstruction worker owns one x and one nbBuf and streams its
// chunks through them. x must have InputWidth columns and at least
// len(queries) rows.
func (e *Extractor) BuildBatch(queries []mathutil.Vec3, x *nn.Matrix, nbBuf []kdtree.Neighbor) error {
	if x.Cols != e.cfg.InputWidth() {
		return fmt.Errorf("features: batch matrix has %d cols, want %d", x.Cols, e.cfg.InputWidth())
	}
	if x.Rows < len(queries) {
		return fmt.Errorf("features: batch matrix has %d rows for %d queries", x.Rows, len(queries))
	}
	if cap(nbBuf) < e.cfg.K {
		return fmt.Errorf("features: neighbour buffer holds %d, need >= K = %d", cap(nbBuf), e.cfg.K)
	}
	e.rows(queries, x.Data, nbBuf)
	return nil
}

// rows writes the feature vectors of queries into consecutive
// InputWidth-wide rows of dst, running the k-NN searches in runs of
// cap(nbBuf)/K (at least one) queries.
func (e *Extractor) rows(queries []mathutil.Vec3, dst []float64, nbBuf []kdtree.Neighbor) {
	k, width := e.cfg.K, e.cfg.InputWidth()
	run := cap(nbBuf) / k
	for lo := 0; lo < len(queries); lo += run {
		qs := queries[lo:min(lo+run, len(queries))]
		nbs := e.tree.KNearestBatchInto(qs, k, 1, nbBuf[:len(qs)*k])
		for i, q := range qs {
			r := (lo + i) * width
			e.Row(q, nbs[i*k:(i+1)*k], dst[r:r+width])
		}
	}
}

// matrixRun is how many queries Matrix and GridMatrix featurize per
// batch search: each worker reuses one run of query and neighbour
// scratch, and consecutive queries warm-start each other.
const matrixRun = 256

// Matrix builds the feature matrix for a set of query points in
// parallel: one row per query, InputWidth columns.
func (e *Extractor) Matrix(queries []mathutil.Vec3) *nn.Matrix {
	return e.matrix(len(queries), func(i int) mathutil.Vec3 { return queries[i] })
}

// GridMatrix builds the feature matrix for the flat grid indices idxs
// of volume geometry v (values of v are not read — only positions).
func (e *Extractor) GridMatrix(v *grid.Volume, idxs []int) *nn.Matrix {
	return e.matrix(len(idxs), func(i int) mathutil.Vec3 { return v.PointAt(idxs[i]) })
}

// matrix builds the n-row feature matrix of the queries point(0), ...,
// point(n-1) in parallel, each worker featurizing its rows in runs of
// matrixRun.
func (e *Extractor) matrix(n int, point func(i int) mathutil.Vec3) *nn.Matrix {
	width := e.cfg.InputWidth()
	x := nn.NewMatrix(n, width)
	_, sp := telemetry.Default().Start(context.TODO(), "features/extract")
	parallel.ForChunked(n, 0, func(lo, hi int) {
		run := min(matrixRun, hi-lo)
		queries := make([]mathutil.Vec3, 0, run)
		nbBuf := make([]kdtree.Neighbor, 0, run*e.cfg.K)
		for start := lo; start < hi; start += run {
			end := min(start+run, hi)
			queries = queries[:0]
			for i := start; i < end; i++ {
				queries = append(queries, point(i))
			}
			e.rows(queries, x.Data[start*width:end*width], nbBuf)
		}
	})
	sp.End()
	telemetry.Default().Counter("features.rows_built").Add(int64(n))
	return x
}

// Targets builds the training-target matrix for the flat grid indices
// idxs of the ground-truth volume: normalized value plus (when
// configured) normalized gradients.
func Targets(cfg Config, norm *Normalizer, truth *grid.Volume, idxs []int) *nn.Matrix {
	y := nn.NewMatrix(len(idxs), cfg.OutputWidth())
	parallel.For(len(idxs), 0, func(r int) {
		idx := idxs[r]
		row := y.Row(r)
		row[0] = norm.Value(truth.Data[idx])
		if cfg.WithGradients {
			i, j, k := truth.Coords(idx)
			g := norm.Gradient(truth.GradientAt(i, j, k))
			row[1] = g.X
			row[2] = g.Y
			row[3] = g.Z
		}
	})
	return y
}

// TrainingSet is a paired feature/target matrix set.
type TrainingSet struct {
	X, Y *nn.Matrix
}

// Append concatenates another training set row-wise (used to build the
// paper's combined 1%+5% training data, Fig 7).
func (t *TrainingSet) Append(o *TrainingSet) error {
	if t.X.Cols != o.X.Cols || t.Y.Cols != o.Y.Cols {
		return errors.New("features: appending incompatible training sets")
	}
	t.X.Data = append(t.X.Data, o.X.Data...)
	t.Y.Data = append(t.Y.Data, o.Y.Data...)
	t.X.Rows += o.X.Rows
	t.Y.Rows += o.Y.Rows
	return nil
}

// Len returns the number of training rows.
func (t *TrainingSet) Len() int { return t.X.Rows }

// Subsample returns a training set holding a uniformly chosen fraction
// of the rows (without replacement, deterministic for a seed). The
// paper's Table II / Fig 14 train on 100%, 50% and 25% subsets.
func (t *TrainingSet) Subsample(fraction float64, seed int64) (*TrainingSet, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("features: subsample fraction %g outside (0, 1]", fraction)
	}
	n := t.Len()
	keep := int(fraction*float64(n) + 0.5)
	if keep < 1 {
		keep = 1
	}
	if keep >= n {
		return &TrainingSet{X: t.X.Clone(), Y: t.Y.Clone()}, nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := mathutil.NewRNG(seed)
	for i := 0; i < keep; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	x := nn.NewMatrix(keep, t.X.Cols)
	y := nn.NewMatrix(keep, t.Y.Cols)
	for i := 0; i < keep; i++ {
		copy(x.Row(i), t.X.Row(perm[i]))
		copy(y.Row(i), t.Y.Row(perm[i]))
	}
	return &TrainingSet{X: x, Y: y}, nil
}

// Split partitions the training set into a training part and a held-out
// validation part of ~valFraction of the rows, chosen uniformly at
// random (deterministic for a seed). Used for early stopping.
func (t *TrainingSet) Split(valFraction float64, seed int64) (train, val *TrainingSet, err error) {
	if valFraction <= 0 || valFraction >= 1 {
		return nil, nil, fmt.Errorf("features: validation fraction %g outside (0, 1)", valFraction)
	}
	n := t.Len()
	nVal := int(valFraction*float64(n) + 0.5)
	if nVal < 1 {
		nVal = 1
	}
	if nVal >= n {
		return nil, nil, fmt.Errorf("features: validation split leaves no training rows (n=%d)", n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := mathutil.NewRNG(seed)
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	build := func(rows []int) *TrainingSet {
		x := nn.NewMatrix(len(rows), t.X.Cols)
		y := nn.NewMatrix(len(rows), t.Y.Cols)
		for i, r := range rows {
			copy(x.Row(i), t.X.Row(r))
			copy(y.Row(i), t.Y.Row(r))
		}
		return &TrainingSet{X: x, Y: y}
	}
	return build(perm[nVal:]), build(perm[:nVal]), nil
}

// SubsampleWeighted returns a training set holding ~fraction of the
// rows drawn without replacement with probability proportional to
// weights (len(weights) == Len()). This implements the paper's
// "intelligent training set creation" future-work direction: rather
// than discarding training rows uniformly, keep the feature-rich ones.
func (t *TrainingSet) SubsampleWeighted(fraction float64, weights []float64, seed int64) (*TrainingSet, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("features: subsample fraction %g outside (0, 1]", fraction)
	}
	n := t.Len()
	if len(weights) != n {
		return nil, fmt.Errorf("features: %d weights for %d rows", len(weights), n)
	}
	keep := int(fraction*float64(n) + 0.5)
	if keep < 1 {
		keep = 1
	}
	if keep >= n {
		return &TrainingSet{X: t.X.Clone(), Y: t.Y.Clone()}, nil
	}
	idxs := sampling.WeightedTopK(weights, keep, seed)
	x := nn.NewMatrix(keep, t.X.Cols)
	y := nn.NewMatrix(keep, t.Y.Cols)
	for i, r := range idxs {
		copy(x.Row(i), t.X.Row(r))
		copy(y.Row(i), t.Y.Row(r))
	}
	return &TrainingSet{X: x, Y: y}, nil
}

// GradientWeights derives per-row selection weights from the gradient
// components of the targets (columns 1-3): rows in high-gradient
// regions — near the features the sampler tried to preserve — get
// proportionally more weight. A small floor keeps smooth regions
// represented. It returns nil when the targets carry no gradients.
func (t *TrainingSet) GradientWeights(floor float64) []float64 {
	if t.Y.Cols < 4 {
		return nil
	}
	if floor <= 0 {
		floor = 0.05
	}
	n := t.Len()
	w := make([]float64, n)
	maxG := 0.0
	for r := 0; r < n; r++ {
		row := t.Y.Row(r)
		g := math.Sqrt(row[1]*row[1] + row[2]*row[2] + row[3]*row[3])
		w[r] = g
		if g > maxG {
			maxG = g
		}
	}
	if maxG == 0 {
		maxG = 1
	}
	for r := range w {
		w[r] = floor + w[r]/maxG
	}
	return w
}

// Build assembles the full training set for one sampled copy of a
// timestep: features from the cloud's k-NN structure at every void
// location, targets from the ground-truth volume (available in situ at
// training time).
func Build(cfg Config, truth *grid.Volume, cloud *pointcloud.Cloud, voidIdxs []int, norm *Normalizer) (*TrainingSet, error) {
	reg := telemetry.Default()
	_, sp := reg.Start(context.TODO(), "features/build")
	defer sp.End()
	ex, err := NewExtractor(cfg, cloud, norm)
	if err != nil {
		return nil, err
	}
	x := ex.GridMatrix(truth, voidIdxs)
	y := Targets(cfg, norm, truth, voidIdxs)
	reg.Counter("features.training_rows").Add(int64(len(voidIdxs)))
	return &TrainingSet{X: x, Y: y}, nil
}
