// Package core implements the paper's primary contribution: a fully
// connected neural network (FCNN) that reconstructs full-resolution
// regular-grid scalar fields from aggressively sampled, unstructured
// point clouds.
//
// The workflow matches Section III of the paper:
//
//  1. Pretrain: at one timestep where the full field is available in
//     situ, sample it at the training fractions (1% and 5% by default),
//     extract a [1×23] feature vector per void location (five nearest
//     sampled points + the void position) with a [1×4] target (value +
//     gradients), and train the FCNN with Adam/MSE.
//  2. Reconstruct: given any sampled cloud of any timestep at any
//     sampling percentage — and any output resolution or spatial domain
//     — predict every void location in one batched inference pass.
//     Reconstruction cost is constant in the sampling percentage.
//  3. Fine-tune: adapt the pretrained model to a new timestep or
//     resolution with a few epochs. Case 1 retrains all layers
//     (~10 epochs); Case 2 retrains only the last two layers (cheaper
//     to store per timestep, needs more epochs).
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fillvoid/internal/features"
	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/nn"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// Options configures pretraining and reconstruction.
type Options struct {
	// Features controls the k-NN feature engineering (default: K = 5
	// with gradient targets).
	Features features.Config
	// Hidden lists hidden-layer widths (default: the paper's five
	// layers, 512–16).
	Hidden []int
	// Epochs is the full-training epoch count (the paper uses 500).
	Epochs int
	// FineTuneEpochs is the default Case 1 fine-tune epoch count (~10).
	FineTuneEpochs int
	// TrainFractions are the sampling percentages whose void features
	// form the training set; the paper concatenates 1% and 5%.
	TrainFractions []float64
	// MaxTrainRows caps the training set size by uniform subsampling
	// (0 = unlimited). Table II shows quality is insensitive to this.
	MaxTrainRows int
	// BatchSize is the minibatch size (default 256).
	BatchSize int
	// Workers bounds parallelism (<= 0: all cores).
	Workers int
	// Seed drives sampling, init, and shuffling.
	Seed int64
	// LearningRate for Adam (default 1e-3, the paper's setting).
	LearningRate float64
	// SubsampleSeed drives MaxTrainRows subsampling.
	SubsampleSeed int64
	// RowSelection picks how MaxTrainRows trims the training set:
	// uniform (the paper's Table II protocol) or gradient-weighted (the
	// paper's "intelligent training set creation" future work).
	RowSelection RowSelection
	// ReconBatch bounds how many locations reconstruction runs between
	// two context checks (default 1<<18). Reconstruction runs on the
	// plan's neighbour pass, which checks the context once per tile of
	// at most recon.NeighborTile (512) locations per worker and keeps
	// memory flat at any grid size, so it meets every bound of at least
	// 512.
	// The field stays because the model header, and with it every
	// model id, includes it.
	ReconBatch int
	// ValidationFraction, when > 0, holds out that fraction of the
	// training rows for per-epoch validation with early stopping
	// (Patience epochs without improvement; best weights restored).
	// The paper trains a fixed 500 epochs; this is an optional
	// production refinement.
	ValidationFraction float64
	// Patience is the early-stopping patience (default 20) when
	// ValidationFraction > 0.
	Patience int
}

// RowSelection is the training-row trimming strategy.
type RowSelection int

const (
	// SelectUniform keeps a uniform random subset (paper Table II).
	SelectUniform RowSelection = iota
	// SelectGradient keeps rows with probability proportional to the
	// target gradient magnitude, concentrating the budget on
	// feature-rich regions.
	SelectGradient
)

// String implements fmt.Stringer.
func (s RowSelection) String() string {
	switch s {
	case SelectUniform:
		return "uniform"
	case SelectGradient:
		return "gradient"
	default:
		return fmt.Sprintf("RowSelection(%d)", int(s))
	}
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Features:       features.DefaultConfig(),
		Hidden:         nn.PaperHidden(),
		Epochs:         500,
		FineTuneEpochs: 10,
		TrainFractions: []float64{0.01, 0.05},
		LearningRate:   1e-3,
	}
}

func (o Options) withDefaults() Options {
	if o.Features.K == 0 {
		o.Features = features.DefaultConfig()
	}
	if o.Hidden == nil {
		o.Hidden = nn.PaperHidden()
	}
	if o.Epochs == 0 {
		o.Epochs = 500
	}
	if o.FineTuneEpochs == 0 {
		o.FineTuneEpochs = 10
	}
	if len(o.TrainFractions) == 0 {
		o.TrainFractions = []float64{0.01, 0.05}
	}
	if o.LearningRate == 0 {
		o.LearningRate = 1e-3
	}
	if o.BatchSize == 0 {
		o.BatchSize = 256
	}
	return o
}

// FineTuneMode selects the paper's two fine-tuning strategies.
type FineTuneMode int

const (
	// FineTuneAll retrains every layer (Case 1): converges in ~10
	// epochs but a full model must be stored per timestep if models are
	// kept.
	FineTuneAll FineTuneMode = iota
	// FineTuneLastTwo freezes all but the last two layers (Case 2):
	// only those layers change per timestep, shrinking storage, but
	// convergence needs ~300-500 epochs.
	FineTuneLastTwo
)

// String implements fmt.Stringer.
func (m FineTuneMode) String() string {
	switch m {
	case FineTuneAll:
		return "case1-all-layers"
	case FineTuneLastTwo:
		return "case2-last-two"
	default:
		return fmt.Sprintf("FineTuneMode(%d)", int(m))
	}
}

// FCNN is a trained (or in-training) neural reconstructor.
type FCNN struct {
	opts Options
	net  *nn.Network
	// norm carries the value scaling fitted at pretraining time;
	// position scaling is refit to each reconstruction grid so the
	// model transfers across resolutions and spatial domains (Fig 13).
	norm      *features.Normalizer
	fieldName string
	// tm records the most recent training and reconstruction wall
	// times; it is the single timing source consumers (stream.Pipeline,
	// experiments) read so their reports can never disagree with the
	// telemetry spans.
	tm *timings
	// quant, when non-nil, makes inference run on a compressed weight
	// snapshot (f16 or int8) built lazily from net on first use. It is
	// a pointer so the FCNN struct stays copyable (Clone, WithQuant);
	// nil means full f64 precision.
	quant *quantState
}

// quantState is the lazily-built quantized snapshot of the network.
type quantState struct {
	mode nn.QuantMode
	once sync.Once
	q    *nn.Quantized
	err  error
}

// timings holds an FCNN's most recent stage durations.
type timings struct {
	mu    sync.Mutex
	train time.Duration
	recon time.Duration
}

func (t *timings) setTrain(d time.Duration) {
	t.mu.Lock()
	t.train = d
	t.mu.Unlock()
}

func (t *timings) setRecon(d time.Duration) {
	t.mu.Lock()
	t.recon = d
	t.mu.Unlock()
}

// Timings returns the wall time of the model's most recent training
// run (Pretrain or FineTune, feature build included) and most recent
// Reconstruct call. These are the same measurements the telemetry
// spans record.
func (r *FCNN) Timings() (train, recon time.Duration) {
	r.tm.mu.Lock()
	defer r.tm.mu.Unlock()
	return r.tm.train, r.tm.recon
}

// Pretrain samples truth at each training fraction with the given
// sampler, builds the combined training set, and trains a fresh FCNN.
// It returns the trained reconstructor; per-epoch losses are available
// via Losses. It is PretrainResumable with no checkpoints and no
// cancellation.
func Pretrain(truth *grid.Volume, fieldName string, sampler sampling.Sampler, opts Options) (*FCNN, error) {
	return PretrainResumable(context.TODO(), truth, fieldName, sampler, opts, Checkpointing{})
}

// buildTrainingSet assembles the concatenated multi-fraction training
// set. With baseNorm == nil (pretraining) the normalizer's value and
// gradient scaling are fitted here — value range from the densest
// sampled cloud, gradient balance so the gradient targets match the
// value targets in RMS. With a baseNorm (fine-tuning) the fitted value
// and gradient scaling are kept — the model's output semantics must not
// shift under it — and only the position scaling is refit to the new
// grid's bounds, which is what lets fine-tuning cross resolutions and
// spatial domains.
func buildTrainingSet(truth *grid.Volume, fieldName string, sampler sampling.Sampler, opts Options, baseNorm *features.Normalizer, parent *telemetry.Span) (*features.TrainingSet, *features.Normalizer, error) {
	if sampler == nil {
		sampler = &sampling.Importance{Seed: opts.Seed}
	}
	fbSp := parent.Child("feature-build")
	defer fbSp.End()
	type sampled struct {
		cloud *pointcloud.Cloud
		void  []int
		frac  float64
	}
	sampleSp := parent.Child("sample")
	var all []sampled
	for _, frac := range opts.TrainFractions {
		cloud, idxs, err := sampler.Sample(truth, fieldName, frac)
		if err != nil {
			return nil, nil, fmt.Errorf("core: sampling at %g: %w", frac, err)
		}
		all = append(all, sampled{cloud: cloud, void: sampling.VoidIndices(truth, idxs), frac: frac})
	}
	sampleSp.End()
	if len(all) == 0 {
		return nil, nil, errors.New("core: no training fractions")
	}

	var norm *features.Normalizer
	if baseNorm == nil {
		densest := all[0]
		for _, s := range all[1:] {
			if s.frac > densest.frac {
				densest = s
			}
		}
		norm = features.NormalizerFor(densest.cloud, truth.Bounds())
		if opts.Features.WithGradients {
			// Balance gradient targets against the value targets: fit
			// on a bounded sample of void locations for speed.
			fit := densest.void
			if len(fit) > 20000 {
				fit = fit[:20000]
			}
			norm.FitGradScale(truth, fit, gradTargetRMS)
		}
	} else {
		n := *baseNorm
		pos := features.NewNormalizer(truth.Bounds(), 0, 1)
		n.PosMin = pos.PosMin
		n.PosScale = pos.PosScale
		norm = &n
	}

	var combined *features.TrainingSet
	for _, s := range all {
		ts, err := features.Build(opts.Features, truth, s.cloud, s.void, norm)
		if err != nil {
			return nil, nil, err
		}
		if combined == nil {
			combined = ts
		} else if err := combined.Append(ts); err != nil {
			return nil, nil, err
		}
	}
	if combined == nil || combined.Len() == 0 {
		return nil, nil, errors.New("core: empty training set")
	}
	if opts.MaxTrainRows > 0 && combined.Len() > opts.MaxTrainRows {
		frac := float64(opts.MaxTrainRows) / float64(combined.Len())
		var sub *features.TrainingSet
		var err error
		if opts.RowSelection == SelectGradient {
			if w := combined.GradientWeights(0); w != nil {
				sub, err = combined.SubsampleWeighted(frac, w, opts.SubsampleSeed)
			} else {
				// No gradient targets to weight by: fall back to uniform.
				sub, err = combined.Subsample(frac, opts.SubsampleSeed)
			}
		} else {
			sub, err = combined.Subsample(frac, opts.SubsampleSeed)
		}
		if err != nil {
			return nil, nil, err
		}
		combined = sub
	}
	return combined, norm, nil
}

// gradTargetRMS is the RMS the gradient target components are scaled to
// — comparable to the spread of the min-max normalized value component,
// so the four-way MSE weights value and gradients evenly.
const gradTargetRMS = 0.2

// FineTune adapts the model to a new timestep (or resolution/domain)
// whose ground truth is available in situ, using epochs epochs of the
// given mode. Pass epochs <= 0 for the mode's default (FineTuneEpochs
// for Case 1, 30× that for Case 2). The model's freeze state is
// restored to fully-trainable afterwards. It is FineTuneResumable with
// no checkpoints and no cancellation.
func (r *FCNN) FineTune(truth *grid.Volume, sampler sampling.Sampler, mode FineTuneMode, epochs int) error {
	return r.FineTuneResumable(context.TODO(), truth, sampler, mode, epochs, Checkpointing{})
}

// Name implements recon.Reconstructor: "fcnn" for the full-precision
// model, "fcnn-f16"/"fcnn-int8" for quantized views.
func (r *FCNN) Name() string {
	if r.quant != nil {
		return "fcnn-" + r.quant.mode.String()
	}
	return "fcnn"
}

// WithQuant returns a reconstructor view of r whose inference runs on
// weights compressed to the given mode ("f16" or "int8"; "", "none"
// and "f64" return r unchanged). The view shares the underlying
// network, normalizer and timings with r; the compressed snapshot is
// taken lazily on first reconstruction and reused afterwards, so
// fine-tune before taking the view, not after.
func (r *FCNN) WithQuant(mode string) (recon.Reconstructor, error) {
	m, err := nn.ParseQuantMode(mode)
	if err != nil {
		return nil, err
	}
	if m == nn.QuantNone {
		return r, nil
	}
	cp := *r
	cp.quant = &quantState{mode: m}
	return &cp, nil
}

// predictor resolves the inference engine: the network itself at full
// precision, or the (lazily built) quantized snapshot.
func (r *FCNN) predictor() (nn.Predictor, error) {
	if r.quant == nil {
		return r.net, nil
	}
	r.quant.once.Do(func() {
		r.quant.q, r.quant.err = r.net.Quantize(r.quant.mode)
	})
	return r.quant.q, r.quant.err
}

// Reconstruct implements recon.Reconstructor (legacy full-grid path): it
// fills the spec'd grid from the sampled cloud via a private query plan.
func (r *FCNN) Reconstruct(c *pointcloud.Cloud, spec recon.GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// fusedScratch is one worker's reusable state for the fused path: the
// feature block of one neighbour-pass tile's void rows, the prediction
// block, the per-layer activation buffers, and the region ordinal of
// each void row. It holds recon.NeighborTile rows, so the feature block
// (rows × 23 floats) and every activation block stay cache-resident
// while the layer weights stream over them. It records the shape it was
// built for (input and output width and hidden widths) and serves only
// predictors of that shape.
type fusedScratch struct {
	inW, outW int
	hidden    []int
	x, out    *nn.Matrix
	buf       *nn.InferenceBuffers
	rows      []int
}

// scratchPool recycles fusedScratch sets across ReconstructRegion
// calls. A set for the repo benchmark's network is about 1.3 MB;
// without reuse every call, even a 256-node box query, would allocate
// and zero one per worker. Unlike sync.Pool, whose per-P slots miss when
// a worker moves to another P, the free list hands every returned set to
// the next call of its shape.
var scratchPool struct {
	mu   sync.Mutex
	free []*fusedScratch // most recently returned last
}

// getFusedScratch returns the most recently pooled scratch set built
// for this shape, or a new one.
func getFusedScratch(pred nn.Predictor, inW, outW int) *fusedScratch {
	hidden := pred.Config().Hidden
	scratchPool.mu.Lock()
	for i := len(scratchPool.free) - 1; i >= 0; i-- {
		if s := scratchPool.free[i]; s.inW == inW && s.outW == outW && slices.Equal(s.hidden, hidden) {
			scratchPool.free = slices.Delete(scratchPool.free, i, i+1)
			scratchPool.mu.Unlock()
			return s
		}
	}
	scratchPool.mu.Unlock()
	return &fusedScratch{
		inW:    inW,
		outW:   outW,
		hidden: slices.Clone(hidden),
		x:      nn.NewMatrix(recon.NeighborTile, inW),
		out:    nn.NewMatrix(recon.NeighborTile, outW),
		buf:    pred.NewInferenceBuffers(recon.NeighborTile),
		rows:   make([]int, recon.NeighborTile),
	}
}

// putFusedScratch returns one call's per-worker sets (nil slots are
// workers that never ran) to scratchPool. The pool keeps the
// 2·max(GOMAXPROCS, workers) most recently returned sets: every worker
// of a call on two alternating network shapes, and no more.
func putFusedScratch(sets []*fusedScratch) {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	for _, s := range sets {
		if s != nil {
			scratchPool.free = append(scratchPool.free, s)
		}
	}
	if over := len(scratchPool.free) - 2*max(runtime.GOMAXPROCS(0), len(sets)); over > 0 {
		scratchPool.free = slices.Delete(scratchPool.free, 0, over)
	}
}

// ReconstructRegion implements recon.Reconstructor on the plan's
// neighbour pass (recon.Plan.Neighbors), which hands each worker tiles
// of consecutive region queries with their canonical K-NN lists. A
// query whose nearest sample (the plan's NearestOf rule, the same one
// the nearest table holds) lies within a squared distance of
// MinSpacing2·1e-12 coincides with that sample and keeps its exact
// value, as in the paper, which predicts only the void; the tile's
// other queries, the void locations, become feature rows packed into
// the worker's scratch and run through one blocked GEMM forward pass,
// denormalized straight into dst. No grid-wide table is built for it:
// a box or point-list query on a fresh plan leaves the plan without a
// nearest table, and a full-grid query fills the table on the way. The
// kernels compute every row on its own, so the packing changes no bit.
// The position normalization is refit to the plan's full grid bounds —
// not the region's — which is what lets a model trained on one
// resolution/domain reconstruct another, and makes a sub-box query
// bit-identical to the same box cut from a full-grid reconstruction.
func (r *FCNN) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	K := r.opts.Features.K
	if c.Len() < K {
		return fmt.Errorf("core: cloud has %d points, need >= %d", c.Len(), K)
	}
	spec := p.Spec()
	reg := telemetry.Default()
	ctx, sp := reg.Start(ctx, "reconstruct")
	defer sp.End()
	start := time.Now()
	norm := r.reconNormalizer(spec)
	ex, err := features.NewExtractorWithTree(r.opts.Features, c, p.Tree(), norm)
	if err != nil {
		return err
	}
	pred, err := r.predictor()
	if err != nil {
		return err
	}
	inW, outW := ex.Config().InputWidth(), pred.Config().Out

	eps2 := spec.MinSpacing2() * 1e-12
	workers := r.opts.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	// One scratch set per worker of the pass, taken from scratchPool
	// when the worker's first tile arrives: a small region engages
	// fewer workers.
	scratch := make([]*fusedScratch, workers)
	defer putFusedScratch(scratch)
	// The features read the first K neighbours, the nearest-sample rule
	// the first two.
	k := max(K, 2)
	var void atomic.Int64
	// The pass's own span, recon/neighbors, nests under this one.
	fusedCtx, fusedSp := reg.Start(ctx, "reconstruct/fused-infer")
	err = p.Neighbors(fusedCtx, region, k, workers, func(w, first int, queries []mathutil.Vec3, nbs []kdtree.Neighbor) error {
		s := scratch[w]
		if s == nil {
			s = getFusedScratch(pred, inW, outW)
			scratch[w] = s
		}
		n := 0
		for i, q := range queries {
			nb := nbs[i*k : (i+1)*k]
			if nb[0].Dist2 <= eps2 {
				j, _ := p.NearestOf(q, nb)
				dst[first+i] = c.Values[j]
				continue
			}
			ex.Row(q, nb[:K], s.x.Row(n))
			s.rows[n] = first + i
			n++
		}
		void.Add(int64(n))
		if n == 0 {
			return nil
		}
		s.x.Rows, s.out.Rows = n, n
		if err := pred.PredictInto(s.x, s.out, s.buf); err != nil {
			return err
		}
		for i, m := range s.rows[:n] {
			dst[m] = norm.Denorm(s.out.At(i, 0))
		}
		return nil
	})
	fusedSp.End()
	if err != nil {
		return err
	}
	n, nVoid := region.Len(), int(void.Load())
	elapsed := time.Since(start)
	r.tm.setRecon(elapsed)
	reg.Counter("core.reconstruct.runs").Inc()
	reg.Counter("core.reconstruct.void_points").Add(int64(nVoid))
	reg.Counter("core.reconstruct.exact_points").Add(int64(n - nVoid))
	telemetry.Debugf("reconstruct done",
		"points", n, "void", nVoid, "samples", c.Len(),
		"dur", elapsed.Round(time.Millisecond))
	return nil
}

// reconNormalizer builds the per-reconstruction normalizer: the fitted
// value scaling with position scaling refit to the target grid bounds.
func (r *FCNN) reconNormalizer(spec recon.GridSpec) *features.Normalizer {
	norm := &features.Normalizer{ValMin: r.norm.ValMin, ValScale: r.norm.ValScale}
	posNorm := features.NewNormalizer(spec.Bounds(), 0, 1)
	norm.PosMin = posNorm.PosMin
	norm.PosScale = posNorm.PosScale
	return norm
}

// Losses returns the concatenated per-epoch training losses (full
// training followed by fine-tuning epochs); Fig 12 plots these.
func (r *FCNN) Losses() []float64 { return r.net.Losses }

// Network exposes the underlying model (parameter counts, freezing).
func (r *FCNN) Network() *nn.Network { return r.net }

// Options returns the reconstructor's configuration.
func (r *FCNN) Options() Options { return r.opts }

// FieldName returns the scalar attribute this model was trained on.
func (r *FCNN) FieldName() string { return r.fieldName }

// Clone deep-copies the reconstructor (model weights included) so a
// pretrained model can be fine-tuned per timestep without mutating the
// original — the Fig 11 experiment does exactly this.
func (r *FCNN) Clone() (*FCNN, error) {
	cp := *r
	net, err := r.net.Clone()
	if err != nil {
		return nil, err
	}
	cp.net = net
	n := *r.norm
	cp.norm = &n
	cp.tm = &timings{}
	if r.quant != nil {
		// Fresh lazy state: the clone's snapshot must come from the
		// clone's weights, not the original's.
		cp.quant = &quantState{mode: r.quant.mode}
	}
	return &cp, nil
}

// modelHeader is the JSON header of the model format; modelVersion is
// its format version.
type modelHeader struct {
	Version   int
	Opts      Options
	Norm      features.Normalizer
	FieldName string
}

const modelVersion = 1

// Save writes the reconstructor in the model format: a little-endian
// uint64 length, a JSON modelHeader (format version, options,
// normalizer, field name), then the network's bytes (nn.Network.Save).
// The bytes depend only on the model's values, so equal models save to
// equal bytes in every process; a model id is their FNV-1a hash.
func (r *FCNN) Save(w io.Writer) error {
	hdr, err := r.header()
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return r.net.Save(w)
}

// header returns the model format up to the network's bytes. A
// checkpoint is these bytes followed by the network's MarshalState.
func (r *FCNN) header() ([]byte, error) {
	hdr, err := json.Marshal(modelHeader{modelVersion, r.opts, *r.norm, r.fieldName})
	if err != nil {
		return nil, err
	}
	return append(binary.LittleEndian.AppendUint64(nil, uint64(len(hdr))), hdr...), nil
}

// Load reads a reconstructor written by Save.
func Load(rd io.Reader) (*FCNN, error) {
	b, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	return decode(b, func(b []byte) (*nn.Network, error) { return nn.Load(bytes.NewReader(b)) })
}

// decode reads the model header from b and the network's bytes after it
// with net: nn.Load for a model, nn.Resume for a checkpoint.
func decode(b []byte, net func([]byte) (*nn.Network, error)) (*FCNN, error) {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) > uint64(len(b)-8) {
		return nil, errors.New("core: model header truncated")
	}
	end := 8 + int(binary.LittleEndian.Uint64(b))
	var h modelHeader
	if err := json.Unmarshal(b[8:end], &h); err != nil {
		return nil, fmt.Errorf("core: decoding model header: %w", err)
	}
	if h.Version != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", h.Version)
	}
	n, err := net(b[end:])
	if err != nil {
		return nil, err
	}
	return &FCNN{opts: h.Opts.withDefaults(), net: n, norm: &h.Norm, fieldName: h.FieldName, tm: &timings{}}, nil
}

// SaveFile writes the reconstructor to path.
func (r *FCNN) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return r.Save(f)
}

// LoadFile reads a reconstructor from path.
func LoadFile(path string) (*FCNN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
