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
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
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
	// ReconBatch bounds how many void locations are featurized and
	// predicted at once during reconstruction (default 1<<18). At the
	// paper's ionization resolution the void set is ~37M points, whose
	// full feature matrix would need ~7 GB; batching keeps memory flat.
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
// via Losses.
func Pretrain(truth *grid.Volume, fieldName string, sampler sampling.Sampler, opts Options) (*FCNN, error) {
	opts = opts.withDefaults()
	reg := telemetry.Default()
	sp := reg.StartSpan("pretrain")
	start := time.Now()
	ts, norm, err := buildTrainingSet(truth, fieldName, sampler, opts, nil, sp)
	if err != nil {
		return nil, err
	}
	net, err := nn.New(nn.Config{
		In:        opts.Features.InputWidth(),
		Out:       opts.Features.OutputWidth(),
		Hidden:    opts.Hidden,
		Seed:      opts.Seed,
		BatchSize: opts.BatchSize,
		Workers:   opts.Workers,
		Adam:      nn.AdamConfig{LearningRate: opts.LearningRate},
	})
	if err != nil {
		return nil, err
	}
	if reg.Enabled() {
		net.SetObserver(reg.Train("pretrain"))
	}
	reg.Counter("core.pretrain.rows").Add(int64(ts.Len()))
	r := &FCNN{opts: opts, net: net, norm: norm, fieldName: fieldName, tm: &timings{}}
	trainSp := sp.Child("train")
	if opts.ValidationFraction > 0 {
		train, val, err := ts.Split(opts.ValidationFraction, opts.Seed^0x5a11d)
		if err != nil {
			return nil, err
		}
		patience := opts.Patience
		if patience <= 0 {
			patience = 20
		}
		if _, _, err := net.TrainWithValidation(train.X, train.Y, val.X, val.Y, opts.Epochs, patience); err != nil {
			return nil, err
		}
	} else if _, err := net.TrainEpochs(ts.X, ts.Y, opts.Epochs); err != nil {
		return nil, err
	}
	trainSp.End()
	sp.End()
	elapsed := time.Since(start)
	r.tm.setTrain(elapsed)
	reg.Counter("core.pretrain.runs").Inc()
	telemetry.Infof("pretrain done",
		"field", fieldName, "rows", ts.Len(), "epochs", len(net.Losses),
		"params", net.ParamCount(), "dur", elapsed.Round(time.Millisecond))
	return r, nil
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
// restored to fully-trainable afterwards.
func (r *FCNN) FineTune(truth *grid.Volume, sampler sampling.Sampler, mode FineTuneMode, epochs int) error {
	opts := r.opts
	if epochs <= 0 {
		epochs = opts.FineTuneEpochs
		if mode == FineTuneLastTwo {
			epochs = opts.FineTuneEpochs * 30
		}
	}
	reg := telemetry.Default()
	sp := reg.StartSpan("finetune")
	start := time.Now()
	ts, _, err := buildTrainingSet(truth, r.fieldName, sampler, opts, r.norm, sp)
	if err != nil {
		return err
	}
	switch mode {
	case FineTuneAll:
		r.net.UnfreezeAll()
	case FineTuneLastTwo:
		r.net.FreezeAllButLast(2)
	default:
		return fmt.Errorf("core: unknown fine-tune mode %v", mode)
	}
	if reg.Enabled() {
		r.net.SetObserver(reg.Train("finetune"))
	}
	trainSp := sp.Child("train")
	_, err = r.net.TrainEpochs(ts.X, ts.Y, epochs)
	trainSp.End()
	r.net.UnfreezeAll()
	sp.End()
	elapsed := time.Since(start)
	r.tm.setTrain(elapsed)
	reg.Counter("core.finetune.runs").Inc()
	telemetry.Infof("finetune done",
		"field", r.fieldName, "mode", mode, "rows", ts.Len(), "epochs", epochs,
		"dur", elapsed.Round(time.Millisecond))
	return err
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

// fusedTile is the micro-batch size of the fused inference path: each
// worker featurizes and predicts fusedTile void locations at a time, so
// the feature block (fusedTile × 23 floats) and every activation block
// stay cache-resident while the layer weights stream over them.
const fusedTile = 512

// fusedScratch is one worker's reusable state for the fused path: the
// feature block, the prediction block, the per-layer activation
// buffers, and the query/neighbor scratch. Allocated once per
// ReconstructRegion call and reused across every macro-batch.
type fusedScratch struct {
	x, out  *nn.Matrix
	buf     *nn.InferenceBuffers
	queries []mathutil.Vec3
	nbBuf   []kdtree.Neighbor
}

func newFusedScratch(pred nn.Predictor, inW, outW, k int) *fusedScratch {
	return &fusedScratch{
		x:       nn.NewMatrix(fusedTile, inW),
		out:     nn.NewMatrix(fusedTile, outW),
		buf:     pred.NewInferenceBuffers(fusedTile),
		queries: make([]mathutil.Vec3, 0, fusedTile),
		nbBuf:   make([]kdtree.Neighbor, 0, k),
	}
}

// ReconstructRegion implements recon.Reconstructor. Region queries
// coinciding with samples keep their exact sampled value; every other
// query (the void locations) flows through the fused batch pipeline —
// per worker and per fusedTile micro-batch: batched k-NN featurization
// into a reusable feature block, a blocked GEMM forward pass into
// reusable activation buffers, and denormalization straight into dst.
// The context is checked between macro-batches (ReconBatch locations),
// preserving the pre-fusion cancellation granularity. The position
// normalization is refit to the plan's full grid bounds — not the
// region's — which is what lets a model trained on one
// resolution/domain reconstruct another, and makes a sub-box query
// bit-identical to the same box cut from a full-grid reconstruction.
func (r *FCNN) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	if c.Len() < r.opts.Features.K {
		return fmt.Errorf("core: cloud has %d points, need >= %d", c.Len(), r.opts.Features.K)
	}
	spec := p.Spec()
	reg := telemetry.Default()
	sp := reg.StartSpan("reconstruct")
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

	// Split queries into exact sample hits and void locations.
	n := region.Len()
	eps2 := spec.MinSpacing2() * 1e-12
	knnSp := sp.Child("knn-query")
	nearIdx, nearD2, err := p.NearestFor(ctx, region, r.opts.Workers)
	knnSp.End()
	if err != nil {
		return err
	}
	voidIdx := make([]int, 0, n)
	for m := 0; m < n; m++ {
		if nearD2[m] <= eps2 {
			dst[m] = c.Values[nearIdx[m]]
		} else {
			voidIdx = append(voidIdx, m)
		}
	}

	batch := r.opts.ReconBatch
	if batch <= 0 {
		batch = 1 << 18
	}
	workers := r.opts.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	// One scratch set per worker, reused across macro-batches; slots
	// fill lazily because ForChunked may engage fewer workers.
	scratch := make([]*fusedScratch, workers)
	for bstart := 0; bstart < len(voidIdx); bstart += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := bstart + batch
		if end > len(voidIdx) {
			end = len(voidIdx)
		}
		fusedSp := sp.Child("fused-infer")
		err := r.fusedInfer(pred, ex, spec, region, voidIdx[bstart:end], dst, norm, workers, scratch)
		fusedSp.End()
		if err != nil {
			return err
		}
		reg.Counter("core.reconstruct.batches").Inc()
	}
	elapsed := time.Since(start)
	r.tm.setRecon(elapsed)
	reg.Counter("core.reconstruct.runs").Inc()
	reg.Counter("core.reconstruct.void_points").Add(int64(len(voidIdx)))
	reg.Counter("core.reconstruct.exact_points").Add(int64(n - len(voidIdx)))
	telemetry.Debugf("reconstruct done",
		"points", n, "void", len(voidIdx), "samples", c.Len(),
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

// fusedInfer runs one macro-batch of void locations through the fused
// pipeline: workers take contiguous sub-ranges of chunk and stream
// fusedTile micro-batches through their own scratch, so the whole
// macro-batch performs O(workers) allocations on first use and zero
// afterwards. Results are bit-identical to the row-at-a-time reference
// path (reconstructRegionScalar, the tests' oracle) — the kernels
// preserve accumulation order exactly.
func (r *FCNN) fusedInfer(pred nn.Predictor, ex *features.Extractor, spec recon.GridSpec, region recon.Region, chunk []int, dst []float64, norm *features.Normalizer, workers int, scratch []*fusedScratch) error {
	nw := workers
	if nw > len(chunk) {
		nw = len(chunk)
	}
	if nw < 1 {
		return nil
	}
	csz := (len(chunk) + nw - 1) / nw
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	parallel.ForChunked(len(chunk), nw, func(lo, hi int) {
		// ForChunked hands worker w the range starting at w*csz, so the
		// worker id — and its scratch slot — falls out of lo.
		w := lo / csz
		s := scratch[w]
		if s == nil {
			s = newFusedScratch(pred, ex.Config().InputWidth(), pred.Config().Out, ex.Config().K)
			scratch[w] = s
		}
		for t := lo; t < hi; t += fusedTile {
			te := t + fusedTile
			if te > hi {
				te = hi
			}
			tile := chunk[t:te]
			s.queries = s.queries[:0]
			for _, m := range tile {
				s.queries = append(s.queries, region.PointAt(spec, m))
			}
			rows := len(tile)
			s.x.Rows, s.out.Rows = rows, rows
			if err := ex.BuildBatch(s.queries, s.x, s.nbBuf); err != nil {
				fail(err)
				return
			}
			if err := pred.PredictInto(s.x, s.out, s.buf); err != nil {
				fail(err)
				return
			}
			for i, m := range tile {
				dst[m] = norm.Denorm(s.out.At(i, 0))
			}
		}
	})
	return firstErr
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

// bundle is the gob wire format for a saved FCNN reconstructor.
type bundle struct {
	Version   int
	Opts      Options
	Norm      features.Normalizer
	FieldName string
	Model     []byte
}

const bundleVersion = 1

// Save writes the reconstructor (options, normalizer, weights) to w.
func (r *FCNN) Save(w io.Writer) error {
	var buf bytes.Buffer
	if err := r.net.Save(&buf); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&bundle{
		Version:   bundleVersion,
		Opts:      r.opts,
		Norm:      *r.norm,
		FieldName: r.fieldName,
		Model:     buf.Bytes(),
	})
}

// WriteStable writes the reconstructor's persistent state in a
// canonical byte form for content addressing: a length-prefixed JSON
// header (bundle version, options, normalizer, field name) followed by
// the network's stable dump (see nn.Network.WriteStable). Save's gob
// stream embeds process-global type ids that vary with encoding
// history, so equal models can serialize to different gob bytes in
// different processes; these bytes depend only on the model's values,
// which is what lets a model id minted by one process verify in
// another.
func (r *FCNN) WriteStable(w io.Writer) error {
	hdr, err := json.Marshal(struct {
		Version   int
		Opts      Options
		Norm      features.Normalizer
		FieldName string
	}{bundleVersion, r.opts, *r.norm, r.fieldName})
	if err != nil {
		return err
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(hdr)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return r.net.WriteStable(w)
}

// Load reads a reconstructor previously written with Save.
func Load(rd io.Reader) (*FCNN, error) {
	var b bundle
	if err := gob.NewDecoder(rd).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: decoding model bundle: %w", err)
	}
	if b.Version != bundleVersion {
		return nil, fmt.Errorf("core: unsupported bundle version %d", b.Version)
	}
	net, err := nn.Load(bytes.NewReader(b.Model))
	if err != nil {
		return nil, err
	}
	norm := b.Norm
	return &FCNN{opts: b.Opts.withDefaults(), net: net, norm: &norm, fieldName: b.FieldName, tm: &timings{}}, nil
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
