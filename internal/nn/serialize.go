package nn

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// The model format is the one byte form of a network: files, the model
// store, peer copies and model ids (FNV-1a of these bytes) all use it.
// Every integer is a little-endian uint64 and every float64 its
// little-endian IEEE-754 bits:
//
//	version | len, JSON Config | layers |
//	per layer: len, weights | len, biases | frozen (0 or 1) |
//	len, losses
//
// The bytes depend only on the network's values, so equal networks
// serialize identically in every process. Optimizer state is not
// persisted: a loaded model is ready for inference or for fresh
// fine-tuning, matching the paper's deployment model (store the
// pretrained model once, fine-tune per timestep as needed).
const modelVersion = 1

// Save writes the network in the model format. The bytes are encoded
// under the network's mutex, so Save is safe to call while another
// goroutine trains or fine-tunes the network (they are a consistent
// post-step state; see the Network ownership rule); the write itself
// runs outside the lock so a slow writer never stalls training.
func (n *Network) Save(w io.Writer) error {
	cfg, err := json.Marshal(n.cfg)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	b := le.AppendUint64(nil, modelVersion)
	b = append(le.AppendUint64(b, uint64(len(cfg))), cfg...)
	n.mu.Lock()
	b = le.AppendUint64(b, uint64(len(n.layers)))
	for _, l := range n.layers {
		b = appendF64s(appendF64s(b, l.w), l.b)
		var frozen uint64
		if l.frozen {
			frozen = 1
		}
		b = le.AppendUint64(b, frozen)
	}
	b = appendF64s(b, n.Losses)
	n.mu.Unlock()
	_, err = w.Write(b)
	return err
}

func appendF64s(b []byte, s []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	for _, v := range s {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Load reads a network written by Save. Every length is checked against
// the bytes left and every array against the shape the config implies,
// and the whole shape against the input's size before New allocates, so
// a short input cannot make Load allocate more than it could fill.
func Load(r io.Reader) (*Network, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nn: reading model: %w", err)
	}
	d := &decoder{b: b}
	if v := d.u64(); d.err == nil && v != modelVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", v)
	}
	var cfg Config
	if raw := d.next(d.u64()); d.err == nil {
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return nil, fmt.Errorf("nn: decoding model config: %w", err)
		}
	}
	layers := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if want := uint64(len(cfg.Hidden) + 1); layers != want {
		return nil, fmt.Errorf("nn: model has %d layers, config implies %d", layers, want)
	}
	if !cfg.fits(len(d.b)) {
		return nil, fmt.Errorf("nn: config declares more parameters than the model's %d bytes hold", len(b))
	}
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for i, l := range n.layers {
		for _, a := range [][]float64{l.w, l.b} {
			if k := d.u64(); d.err == nil && k != uint64(len(a)) {
				d.err = fmt.Errorf("nn: layer %d array has %d values, config implies %d", i, k, len(a))
			}
			d.f64s(a)
		}
		switch f := d.u64(); f {
		case 0, 1:
			l.frozen = f == 1
		default:
			d.err = fmt.Errorf("nn: layer %d has freeze flag %d, want 0 or 1", i, f)
		}
	}
	if k := d.u64(); d.err == nil && k > 0 {
		if k > uint64(len(d.b)/8) {
			return nil, errTruncated
		}
		n.Losses = make([]float64, k)
		d.f64s(n.Losses)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) > 0 {
		return nil, fmt.Errorf("nn: %d trailing bytes after the model", len(d.b))
	}
	return n, nil
}

var errTruncated = fmt.Errorf("nn: model truncated: %w", io.ErrUnexpectedEOF)

// decoder walks the model format, keeping the first error.
type decoder struct {
	b   []byte
	err error
}

// next consumes k bytes (nil after an error).
func (d *decoder) next(k uint64) []byte {
	if d.err != nil {
		return nil
	}
	if k > uint64(len(d.b)) {
		d.err = errTruncated
		return nil
	}
	out := d.b[:k]
	d.b = d.b[k:]
	return out
}

func (d *decoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// f64s fills dst from the next len(dst) values.
func (d *decoder) f64s(dst []float64) {
	if b := d.next(8 * uint64(len(dst))); b != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// TrainState is the complete resumable training state of a network:
// everything needed to continue an interrupted run bit-identically.
// Beyond what Save persists (config, weights, biases, freeze flags,
// loss history) it carries the Adam moment estimates and step counters
// per layer, the minibatch-shuffle generator state, and — when captured
// mid-TrainWithValidation — the early-stopping state. It is plain
// exported data, gob-encodable; internal/checkpoint writes it to disk
// atomically.
type TrainState struct {
	Version int
	Config  Config
	Weights [][]float64
	Biases  [][]float64
	Frozen  []bool
	Losses  []float64
	// Adam first/second moments and step counts, one entry per dense
	// layer, for the weight and bias parameter groups respectively.
	AdamWM, AdamWV [][]float64
	AdamBM, AdamBV [][]float64
	AdamWT, AdamBT []int
	// Shuffle is the minibatch permutation generator state.
	Shuffle uint64
	// Val is the early-stopping state of an in-progress
	// TrainWithValidation run (nil for plain TrainEpochs runs).
	Val *ValState
}

const trainStateVersion = 1

// Epoch returns the number of lifetime epochs completed at capture time.
func (ts *TrainState) Epoch() int { return len(ts.Losses) }

// CaptureTrainState snapshots the complete resumable training state
// under the network's mutex (safe against a concurrent Save/Clone, and
// called between epochs by the training loop itself).
func (n *Network) CaptureTrainState() *TrainState {
	ts := &TrainState{
		Version: trainStateVersion,
		Config:  n.cfg,
		Shuffle: n.shuffle.State(),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ts.Losses = append([]float64(nil), n.Losses...)
	for i, l := range n.layers {
		ts.Weights = append(ts.Weights, append([]float64(nil), l.w...))
		ts.Biases = append(ts.Biases, append([]float64(nil), l.b...))
		ts.Frozen = append(ts.Frozen, l.frozen)
		o := n.opts[i]
		ts.AdamWM = append(ts.AdamWM, append([]float64(nil), o.w.m...))
		ts.AdamWV = append(ts.AdamWV, append([]float64(nil), o.w.v...))
		ts.AdamBM = append(ts.AdamBM, append([]float64(nil), o.b.m...))
		ts.AdamBV = append(ts.AdamBV, append([]float64(nil), o.b.v...))
		ts.AdamWT = append(ts.AdamWT, o.w.t)
		ts.AdamBT = append(ts.AdamBT, o.b.t)
	}
	return ts
}

// Resume reconstructs a network from a captured TrainState. The
// returned network continues training exactly where the capture left
// off: same weights, optimizer moments, loss history, learning-rate
// schedule position, and shuffle-generator state, so
// resume(k epochs) + (N−k) epochs replays an uninterrupted N-epoch run
// bit for bit (given the same training data and worker count).
func Resume(ts *TrainState) (*Network, error) {
	if ts.Version != trainStateVersion {
		return nil, fmt.Errorf("nn: unsupported train-state version %d", ts.Version)
	}
	n, err := New(ts.Config)
	if err != nil {
		return nil, err
	}
	if len(ts.Weights) != len(n.layers) || len(ts.Biases) != len(n.layers) {
		return nil, fmt.Errorf("nn: train state has %d layers, config implies %d", len(ts.Weights), len(n.layers))
	}
	if len(ts.AdamWM) != len(n.layers) || len(ts.AdamWV) != len(n.layers) ||
		len(ts.AdamBM) != len(n.layers) || len(ts.AdamBV) != len(n.layers) ||
		len(ts.AdamWT) != len(n.layers) || len(ts.AdamBT) != len(n.layers) {
		return nil, errors.New("nn: train state optimizer shape mismatch")
	}
	for i, l := range n.layers {
		if len(ts.Weights[i]) != len(l.w) || len(ts.Biases[i]) != len(l.b) ||
			len(ts.AdamWM[i]) != len(l.w) || len(ts.AdamWV[i]) != len(l.w) ||
			len(ts.AdamBM[i]) != len(l.b) || len(ts.AdamBV[i]) != len(l.b) {
			return nil, fmt.Errorf("nn: train state layer %d shape mismatch", i)
		}
		copy(l.w, ts.Weights[i])
		copy(l.b, ts.Biases[i])
		if i < len(ts.Frozen) {
			l.frozen = ts.Frozen[i]
		}
		o := n.opts[i]
		copy(o.w.m, ts.AdamWM[i])
		copy(o.w.v, ts.AdamWV[i])
		copy(o.b.m, ts.AdamBM[i])
		copy(o.b.v, ts.AdamBV[i])
		o.w.t = ts.AdamWT[i]
		o.b.t = ts.AdamBT[i]
	}
	n.Losses = append([]float64(nil), ts.Losses...)
	n.shuffle.SetState(ts.Shuffle)
	return n, nil
}

// Clone deep-copies the network, including weights, freeze flags and
// loss history, with fresh optimizer state. Fine-tuning experiments
// clone the pretrained model per target timestep so the original stays
// untouched. Like Save, the copy is taken under the source network's
// mutex, so cloning is safe while the source trains.
func (n *Network) Clone() (*Network, error) {
	out, err := New(n.cfg)
	if err != nil {
		return nil, fmt.Errorf("nn: cloning network: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, l := range n.layers {
		copy(out.layers[i].w, l.w)
		copy(out.layers[i].b, l.b)
		out.layers[i].frozen = l.frozen
	}
	out.Losses = append([]float64(nil), n.Losses...)
	return out, nil
}
