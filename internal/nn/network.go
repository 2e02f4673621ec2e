package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/telemetry"
)

// ErrStopped is returned by the training entry points when the run's
// context is cancelled: training halts cleanly on the next epoch
// boundary (a final checkpoint is written first when a checkpoint sink
// is configured). The network is left in a consistent, resumable state.
var ErrStopped = errors.New("nn: training stopped")

// RunOptions controls one training run (TrainEpochsOpts). The zero
// value reproduces TrainEpochs.
type RunOptions struct {
	// Ctx, when non-nil, is polled at every epoch boundary; once it is
	// cancelled the run writes a final checkpoint (if Checkpoint is set)
	// and returns ErrStopped.
	Ctx context.Context
	// Checkpoint, when non-nil, receives the run's resumable state as
	// MarshalState encodes it. It is called after every
	// CheckpointEvery-th lifetime epoch and once more on cancellation.
	// An error from it aborts the run.
	Checkpoint func(state []byte) error
	// CheckpointEvery is the lifetime-epoch period between periodic
	// checkpoints (<= 0 with a non-nil Checkpoint: only the final
	// cancellation checkpoint is written).
	CheckpointEvery int
	// Validation, when non-nil, holds out a validation set for early
	// stopping.
	Validation *Validation
}

// Validation is held-out early stopping for one run: after every epoch
// the run measures the mean squared error on (X, Y); once it has not
// fallen for Patience consecutive epochs (default 10) the run ends, and
// a run that ends without error restores the weights of its best epoch.
type Validation struct {
	X, Y     *Matrix
	Patience int
}

// checkpointDue reports whether a checkpoint should follow the given
// 0-based lifetime epoch.
func (o RunOptions) checkpointDue(lifetimeEpoch int) bool {
	return o.Checkpoint != nil && o.CheckpointEvery > 0 && (lifetimeEpoch+1)%o.CheckpointEvery == 0
}

// stopped reports whether the run's context has been cancelled.
func (o RunOptions) stopped() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Config describes a fully connected regression network.
type Config struct {
	// In and Out are the input/output widths. The paper's reconstructor
	// uses In = 23 (five neighbors × (x,y,z,value) + the void point's
	// x,y,z) and Out = 4 (value + three gradients).
	In, Out int
	// Hidden lists the hidden layer widths. The paper settles on five
	// hidden layers, 512 down to 16 (Fig 5/6).
	Hidden []int
	// Seed drives weight initialization and minibatch shuffling.
	Seed int64
	// BatchSize is the minibatch size; default 256.
	BatchSize int
	// Workers bounds training/inference parallelism (<= 0: all cores).
	Workers int
	// Adam holds the optimizer hyperparameters.
	Adam AdamConfig
	// LRDecayEvery applies LRDecayFactor to the learning rate every
	// LRDecayEvery epochs (0 disables scheduling).
	LRDecayEvery int
	// LRDecayFactor is the multiplicative step decay (default 0.5 when
	// LRDecayEvery > 0).
	LRDecayFactor float64
}

// PaperHidden returns the paper's hidden-layer sizes (five layers,
// 512–16).
func PaperHidden() []int { return []int{512, 256, 64, 32, 16} }

// PyramidHidden returns n hidden layers shrinking geometrically from
// `widest` down to a floor of 16; used by the Fig 6 depth ablation,
// which varies the number of hidden layers from 1 to 9. The floor
// matters: deep stacks that pinch below ~8 units develop dead-ReLU
// bottlenecks and collapse outright, which is a pathology of the
// architecture generator rather than the depth effect the ablation is
// measuring (the paper's deep variants stay wide: 512 down to 16).
func PyramidHidden(n, widest int) []int {
	if n < 1 {
		n = 1
	}
	sizes := make([]int, n)
	w := widest
	for i := 0; i < n; i++ {
		if w < 16 {
			w = 16
		}
		sizes[i] = w
		w /= 2
	}
	return sizes
}

// Network is a trained or trainable FCNN.
//
// Ownership rule: at most one goroutine may train (TrainEpochs,
// TrainEpochsOpts) or Load-copy into a network at a
// time, but Save and Clone are safe to call concurrently with training:
// every weight mutation happens under an internal mutex that Save and
// Clone also take while snapshotting. Server-side model registries rely
// on this to checkpoint or hot-copy a model while it fine-tunes.
type Network struct {
	cfg    Config
	layers []*dense
	opts   []*adamPair
	// mu guards weight/bias mutation (optimizer steps, best-weight
	// restore) and Losses appends against concurrent Save/Clone
	// snapshots. Gradient computation runs outside the lock; only the
	// apply step takes it, so the cost per minibatch is one uncontended
	// lock. Every mutation repacks the layers it changed before it
	// unlocks, so the kernels never read stale packed weights.
	mu sync.Mutex
	// obs, when set, receives one telemetry.EpochStat per training
	// epoch (loss, learning rate, throughput, trainable params). It is
	// called synchronously between epochs and is not serialized.
	obs telemetry.TrainObserver
	// Losses records the mean training loss of every epoch ever run on
	// this network, in order — full training followed by any
	// fine-tuning epochs (Fig 12 plots this).
	Losses []float64
	// shuffle drives minibatch permutation. Its entire state is one
	// uint64 that advances epoch by epoch across every training call on
	// this network, and MarshalState records it — the key to
	// bit-identical crash/resume replay. Each epoch's permutation is a
	// fresh identity shuffled once, so the permutation is a pure
	// function of the generator state at that epoch.
	shuffle *mathutil.SplitMix
	// run is the state of the training run in progress (or restored by
	// Resume for the next training call to continue); nil otherwise.
	run *runState
}

type adamPair struct {
	w, b *adam
}

// New constructs a network with He-initialized weights.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	cfg.Adam = cfg.Adam.withDefaults()
	n := &Network{cfg: cfg, shuffle: mathutil.NewSplitMix(cfg.Seed ^ 0x7a21b3)}
	widths := cfg.layerWidths()
	rng := mathutil.NewRNG(cfg.Seed)
	for i := 0; i+1 < len(widths); i++ {
		relu := i+2 < len(widths) // last layer is linear
		l := newDense(widths[i], widths[i+1], relu)
		l.initHe(rng)
		l.repack()
		n.layers = append(n.layers, l)
		n.opts = append(n.opts, &adamPair{w: newAdam(len(l.w)), b: newAdam(len(l.b))})
	}
	return n, nil
}

func (c Config) validate() error {
	if c.In < 1 || c.Out < 1 {
		return fmt.Errorf("nn: invalid in/out %d/%d", c.In, c.Out)
	}
	for _, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("nn: invalid hidden width %d", h)
		}
	}
	return nil
}

// fits reports whether size bytes can hold the weights and biases of a
// valid config's layers, computed without overflow.
func (c Config) fits(size int) bool {
	left := size / 8
	ws := c.layerWidths()
	for i := 1; i < len(ws); i++ {
		in, out := ws[i-1], ws[i]
		if in > left/out || in*out > left-out {
			return false
		}
		left -= in*out + out
	}
	return true
}

// Config returns the construction configuration.
func (n *Network) Config() Config { return n.cfg }

// SetObserver installs (or clears, with nil) the per-epoch training
// observer. The observer is invoked synchronously after every epoch of
// TrainEpochs / TrainEpochsOpts with monotonically increasing lifetime
// epoch indices (a validated run's stats carry the validation loss); it
// is not copied by Clone nor persisted by Save.
func (n *Network) SetObserver(o telemetry.TrainObserver) { n.obs = o }

// Observer returns the installed per-epoch observer (nil when unset).
func (n *Network) Observer() telemetry.TrainObserver { return n.obs }

// NumLayers returns the number of dense layers (hidden + output).
func (n *Network) NumLayers() int { return len(n.layers) }

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.layers {
		total += l.paramCount()
	}
	return total
}

// SetTrainable marks layer i (0-based) trainable or frozen. Frozen
// layers still participate in forward/backward but skip updates.
func (n *Network) SetTrainable(i int, trainable bool) error {
	if i < 0 || i >= len(n.layers) {
		return fmt.Errorf("nn: layer %d out of range [0,%d)", i, len(n.layers))
	}
	n.layers[i].frozen = !trainable
	return nil
}

// FreezeAllButLast freezes every layer except the last k — the paper's
// Case 2 fine-tuning trains only the last two layers.
func (n *Network) FreezeAllButLast(k int) {
	for i, l := range n.layers {
		l.frozen = i < len(n.layers)-k
	}
}

// UnfreezeAll marks every layer trainable (the paper's Case 1).
func (n *Network) UnfreezeAll() {
	for _, l := range n.layers {
		l.frozen = false
	}
}

// TrainableParamCount counts parameters in unfrozen layers — the extra
// storage needed per timestep under Case 2 (only the last two layers
// change, so only they must be stored per timestep).
func (n *Network) TrainableParamCount() int {
	total := 0
	for _, l := range n.layers {
		if !l.frozen {
			total += l.paramCount()
		}
	}
	return total
}

// predictTile is the row count Predict streams through PredictInto at a
// time, the fused reconstruction path's tile size.
const predictTile = 512

// Predict runs batched inference in parallel and returns the (rows ×
// Out) prediction matrix. Each worker streams its share of the rows
// through PredictInto with buffers of its own.
func (n *Network) Predict(x *Matrix) (*Matrix, error) {
	if x.Cols != n.cfg.In {
		return nil, fmt.Errorf("nn: input width %d, want %d", x.Cols, n.cfg.In)
	}
	out := NewMatrix(x.Rows, n.cfg.Out)
	workers := n.cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	parallel.ForChunked(x.Rows, workers, func(lo, hi int) {
		buf := n.NewInferenceBuffers(min(predictTile, hi-lo))
		for t := lo; t < hi; t += predictTile {
			te := min(t+predictTile, hi)
			if err := n.PredictInto(x.SliceRows(t, te), out.SliceRows(t, te), buf); err != nil {
				// The shapes were checked above and buf fits every tile.
				panic(err)
			}
		}
	})
	return out, nil
}

// Loss returns the mean squared error of predictions against targets,
// averaged over all elements.
func Loss(pred, target *Matrix) (float64, error) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		return 0, errors.New("nn: loss shape mismatch")
	}
	if len(pred.Data) == 0 {
		return 0, nil
	}
	s := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		s += d * d
	}
	return s / float64(len(pred.Data)), nil
}

// TrainEpochs runs `epochs` epochs of minibatch Adam on (x, y) and
// returns the per-epoch mean losses (also appended to n.Losses).
// Training is deterministic for a fixed config, seed, and worker count.
func (n *Network) TrainEpochs(x, y *Matrix, epochs int) ([]float64, error) {
	return n.TrainEpochsOpts(x, y, epochs, RunOptions{})
}

// TrainEpochsOpts is TrainEpochs with run controls: context cancellation
// stops the run on the next epoch boundary (returning ErrStopped with
// the losses so far), a checkpoint sink receives the complete resumable
// training state on the configured period, and a validation set stops
// the run early. Training resumed from such a state (Resume, then this
// call with the same data and the epochs left) replays bit-identically:
// the minibatch permutation generator's position and the early-stopping
// state are part of it, and each epoch's permutation depends only on
// that position.
func (n *Network) TrainEpochsOpts(x, y *Matrix, epochs int, run RunOptions) ([]float64, error) {
	return n.trainEpochs(x, y, epochs, run, (*Network).shardGradient)
}

// shardGradFunc computes one shard's gradients into s.gw and s.gb and
// returns the shard's summed squared error. Training takes it as a
// parameter so tests can run the same loop on the scalar oracles.
type shardGradFunc func(n *Network, sx, sy *Matrix, s *trainScratch, batchTotal int) float64

// trainEpochs is TrainEpochsOpts with the shard gradient passed in. It
// is the one epoch loop: cancellation, validation, loss appends, the
// observer and checkpoints each happen here, once per epoch.
func (n *Network) trainEpochs(x, y *Matrix, epochs int, run RunOptions, grad shardGradFunc) ([]float64, error) {
	// The call continues the run a Resume restored, or starts one, and
	// the run ends with the call, failed or not.
	defer func() { n.run = nil }()
	if x.Rows != y.Rows {
		return nil, errors.New("nn: x/y row mismatch")
	}
	if x.Cols != n.cfg.In || y.Cols != n.cfg.Out {
		return nil, fmt.Errorf("nn: train shapes (%d,%d), want (%d,%d)", x.Cols, y.Cols, n.cfg.In, n.cfg.Out)
	}
	if x.Rows == 0 {
		return nil, errors.New("nn: empty training set")
	}
	val := run.Validation
	if val != nil && (val.X.Rows != val.Y.Rows || val.X.Rows == 0) {
		return nil, errors.New("nn: empty or mismatched validation set")
	}
	if n.run == nil {
		n.run = &runState{start: len(n.Losses)}
	}
	switch {
	case val == nil:
		n.run.stop = nil
	case n.run.stop == nil:
		n.run.stop = &earlyStop{best: math.Inf(1)}
	}
	workers := n.cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	batch := n.cfg.BatchSize
	if batch > x.Rows {
		batch = x.Rows
	}

	perm := make([]int, x.Rows)

	// Per-worker scratch: gradient buffers and activation caches sized
	// for the largest shard.
	shardCap := (batch + workers - 1) / workers
	scratch := make([]*trainScratch, workers)
	for w := range scratch {
		scratch[w] = n.newTrainScratch(shardCap)
	}
	gw := make([][]float64, len(n.layers))
	gb := make([][]float64, len(n.layers))
	for li, l := range n.layers {
		gw[li] = make([]float64, len(l.w))
		gb[li] = make([]float64, len(l.b))
	}
	bx := NewMatrix(batch, x.Cols)
	by := NewMatrix(batch, y.Cols)

	epochLosses := make([]float64, 0, epochs)
	adamCfg := n.cfg.Adam
	// epochBase keeps observer epoch indices — and the decay schedule —
	// monotone across repeated calls: fine-tuning continues the lifetime
	// count instead of restarting it, so LRDecayEvery fires at lifetime
	// epochs k, 2k, ... no matter how training is sliced into calls.
	epochBase := len(n.Losses)
	for e := 0; e < epochs; e++ {
		if run.stopped() {
			if run.Checkpoint != nil {
				if err := n.checkpoint(run); err != nil {
					return epochLosses, fmt.Errorf("nn: final checkpoint: %w", err)
				}
			}
			return epochLosses, ErrStopped
		}
		epochStart := time.Now()
		adamCfg.LearningRate = n.LearningRateAt(epochBase + e)
		// A fresh identity permutation shuffled once: the epoch's batch
		// order is a pure function of the generator state, which a
		// checkpoint restores exactly.
		for i := range perm {
			perm[i] = i
		}
		n.shuffle.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		totalLoss := 0.0
		for start := 0; start < x.Rows; start += batch {
			end := start + batch
			if end > x.Rows {
				end = x.Rows
			}
			bn := end - start
			for i := 0; i < bn; i++ {
				copy(bx.Row(i), x.Row(perm[start+i]))
				copy(by.Row(i), y.Row(perm[start+i]))
			}
			loss := n.trainBatch(bx.SliceRows(0, bn), by.SliceRows(0, bn), scratch, gw, gb, workers, adamCfg, grad)
			// Weight each batch's mean loss by its row count so the
			// epoch mean is the true dataset MSE even when the final
			// minibatch is partial (rows % batch != 0).
			totalLoss += loss * float64(bn)
		}
		meanLoss := totalLoss / float64(x.Rows)
		epochLosses = append(epochLosses, meanLoss)
		// Losses is appended per epoch (not once at the end) so a
		// checkpoint taken after any epoch sees the loss history the
		// resumed run will continue from.
		n.mu.Lock()
		n.Losses = append(n.Losses, meanLoss)
		n.mu.Unlock()
		stat := telemetry.EpochStat{
			Epoch:           epochBase + e,
			Loss:            meanLoss,
			LearningRate:    adamCfg.LearningRate,
			Examples:        x.Rows,
			TrainableParams: n.TrainableParamCount(),
		}
		if val != nil {
			pred, err := n.Predict(val.X)
			if err != nil {
				return epochLosses, err
			}
			if stat.ValLoss, err = Loss(pred, val.Y); err != nil {
				return epochLosses, err
			}
			stat.ValLossValid = true
		}
		if n.obs != nil {
			d := time.Since(epochStart)
			if secs := d.Seconds(); secs > 0 {
				stat.ExamplesPerSec = float64(x.Rows) / secs
			}
			stat.DurationNS = int64(d)
			n.obs.ObserveEpoch(stat)
		}
		if val != nil && n.run.stop.patienceOut(stat.ValLoss, n.layers, val.Patience) {
			break
		}
		if run.checkpointDue(epochBase + e) {
			if err := n.checkpoint(run); err != nil {
				return epochLosses, fmt.Errorf("nn: checkpoint at epoch %d: %w", epochBase+e, err)
			}
		}
	}
	if s := n.run.stop; s != nil && s.bestW != nil {
		n.mu.Lock()
		for i, l := range n.layers {
			copy(l.w, s.bestW[i])
			copy(l.b, s.bestB[i])
			l.repack()
		}
		n.mu.Unlock()
	}
	return epochLosses, nil
}

// checkpoint hands the network's state to the run's checkpoint sink.
func (n *Network) checkpoint(run RunOptions) error {
	state, err := n.MarshalState()
	if err != nil {
		return err
	}
	return run.Checkpoint(state)
}

// LearningRateAt returns the learning rate in effect during the given
// 0-based lifetime epoch under the configured step-decay schedule: the
// base Adam rate multiplied by LRDecayFactor once per completed
// LRDecayEvery-epoch interval. It is a pure function of the config and
// the epoch index, so the decayed rate survives any slicing of training
// into calls — and Save/Load, since the lifetime epoch count (len of
// Losses) is persisted.
func (n *Network) LearningRateAt(lifetimeEpoch int) float64 {
	lr := n.cfg.Adam.LearningRate
	if n.cfg.LRDecayEvery <= 0 || lifetimeEpoch <= 0 {
		return lr
	}
	factor := n.cfg.LRDecayFactor
	if factor <= 0 || factor > 1 {
		factor = 0.5
	}
	for i := 0; i < lifetimeEpoch/n.cfg.LRDecayEvery; i++ {
		lr *= factor
	}
	return lr
}

// runState is what a training run carries between epochs besides the
// network's weights and optimizer: the lifetime epoch count at which it
// began and, when it validates, its early-stopping state. MarshalState
// records it and Resume restores it, so the next training call on the
// resumed network continues the run.
type runState struct {
	start int
	stop  *earlyStop
}

// earlyStop is the early-stopping state of a validated run.
type earlyStop struct {
	best         float64     // lowest validation loss so far (+Inf at first)
	bad          int         // epochs since it last fell
	bestW, bestB [][]float64 // the weights of the best epoch (nil before one)
}

// patienceOut records one epoch's validation loss vl, keeping the
// layers' weights when it is the best so far, and reports whether it
// has now failed to fall for patience epochs in a row (default 10).
func (s *earlyStop) patienceOut(vl float64, layers []*dense, patience int) bool {
	if patience < 1 {
		patience = 10
	}
	if vl < s.best {
		s.best, s.bad = vl, 0
		if s.bestW == nil {
			s.alloc(layers)
		}
		for i, l := range layers {
			copy(s.bestW[i], l.w)
			copy(s.bestB[i], l.b)
		}
		return false
	}
	s.bad++
	return s.bad >= patience
}

// alloc sizes the best-weight buffers for layers.
func (s *earlyStop) alloc(layers []*dense) {
	for _, l := range layers {
		s.bestW = append(s.bestW, make([]float64, len(l.w)))
		s.bestB = append(s.bestB, make([]float64, len(l.b)))
	}
}

// ResumedEpochs returns how many epochs the run a Resume restored had
// trained when its state was captured; it is 0 for any other network
// and once a training call has ended the run.
func (n *Network) ResumedEpochs() int {
	if n.run == nil {
		return 0
	}
	return len(n.Losses) - n.run.start
}

// trainScratch holds one worker's activations, gradient buffers and
// backward-pass workspace.
type trainScratch struct {
	as, dA [][]float64 // per layer: activations and their loss gradients
	ms     [][]byte    // per hidden layer: the column mask of as
	gw, gb [][]float64
	// gemmScratch is the backward pass's workspace; its padScratch also
	// serves the forward pass, and fit sizes it for both.
	gemmScratch
}

func (n *Network) newTrainScratch(rows int) *trainScratch {
	s := &trainScratch{}
	for li, l := range n.layers {
		if li+1 < len(n.layers) {
			s.ms = append(s.ms, make([]byte, maskLen(rows, l.out)))
		}
		s.as = append(s.as, make([]float64, rows*l.out))
		s.dA = append(s.dA, make([]float64, rows*l.out))
		s.gw = append(s.gw, make([]float64, len(l.w)))
		s.gb = append(s.gb, make([]float64, len(l.b)))
		s.fit(rows, l.in, l.out)
	}
	return s
}

// trainBatch computes the batch gradient with data-parallel shards,
// reduces the per-worker gradients in fixed order, and applies one Adam
// step per unfrozen layer. It returns the batch's mean loss.
func (n *Network) trainBatch(bx, by *Matrix, scratch []*trainScratch, gw, gb [][]float64, workers int, adamCfg AdamConfig, grad shardGradFunc) float64 {
	bn := bx.Rows
	if workers > bn {
		workers = bn
	}
	chunk := (bn + workers - 1) / workers
	losses := make([]float64, workers)
	parallel.ForChunked(bn, workers, func(lo, hi int) {
		w := lo / chunk
		losses[w] = grad(n, bx.SliceRows(lo, hi), by.SliceRows(lo, hi), scratch[w], bn)
	})
	// Fixed-order reduction keeps training deterministic. ForChunked
	// runs only the shards that hold rows (5 rows on 4 workers make 3),
	// so only those are reduced: a skipped worker's scratch still holds
	// an earlier batch's gradient.
	shards := (bn + chunk - 1) / chunk
	for li := range n.layers {
		gwl, gbl := gw[li], gb[li]
		for i := range gwl {
			gwl[i] = 0
		}
		for i := range gbl {
			gbl[i] = 0
		}
		for w := 0; w < shards; w++ {
			sw := scratch[w].gw[li]
			for i, v := range sw {
				gwl[i] += v
			}
			sb := scratch[w].gb[li]
			for i, v := range sb {
				gbl[i] += v
			}
		}
	}
	// The apply step mutates weights under n.mu so a concurrent Save or
	// Clone snapshots a consistent parameter set.
	n.mu.Lock()
	for li, l := range n.layers {
		if l.frozen {
			continue
		}
		n.opts[li].w.step(l.w, gw[li], adamCfg)
		n.opts[li].b.step(l.b, gb[li], adamCfg)
		l.repack()
	}
	n.mu.Unlock()
	total := 0.0
	for _, v := range losses {
		total += v
	}
	return total / float64(bn*by.Cols)
}

// shardGradient runs forward + backward over one shard, writing its
// gradients to the scratch buffers and returning the shard's summed
// squared error. The forward pass applies ReLU in the kernel and keeps
// only the activations, which are all denseBackward needs, and their
// column masks, which a skip-safe next layer reads as inference does.
func (n *Network) shardGradient(sx, sy *Matrix, s *trainScratch, batchTotal int) float64 {
	rows := sx.Rows
	nl := len(n.layers)
	cur, cm := sx.Data, []byte(nil)
	for li, l := range n.layers {
		a, am := s.as[li][:rows*l.out], []byte(nil)
		if li+1 < nl {
			am = s.ms[li]
		}
		if !l.skip {
			cm = nil
		}
		denseForward(cur, rows, l.in, cm, l.pw, l.pb, l.out, l.relu, a, am, &s.padScratch)
		cur, cm = a, am
	}

	// d(MSE)/d(pred) with the MSE normalized over batch*out elements.
	pred := s.as[nl-1][:rows*sy.Cols]
	scale := 2 / float64(batchTotal*sy.Cols)
	sse := 0.0
	dLast := s.dA[nl-1][:len(pred)]
	for i, p := range pred {
		d := p - sy.Data[i]
		sse += d * d
		dLast[i] = d * scale
	}

	for li := nl - 1; li >= 0; li-- {
		l := n.layers[li]
		x, dX := sx.Data, []float64(nil)
		if li > 0 {
			x, dX = s.as[li-1][:rows*l.in], s.dA[li-1][:rows*l.in]
		}
		denseBackward(x, rows, l.in, l.w, l.out, l.relu, s.as[li][:rows*l.out], s.dA[li][:rows*l.out], s.gw[li], s.gb[li], dX, &s.gemmScratch)
	}
	return sse
}
