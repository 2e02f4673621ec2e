package nn

import (
	"encoding/binary"
	"encoding/json"
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
	n.mu.Lock()
	b, err := n.appendModel(nil)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendModel appends the model format to b; callers hold n.mu.
func (n *Network) appendModel(b []byte) ([]byte, error) {
	cfg, err := json.Marshal(n.cfg)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	b = le.AppendUint64(b, modelVersion)
	b = append(le.AppendUint64(b, uint64(len(cfg))), cfg...)
	b = le.AppendUint64(b, uint64(len(n.layers)))
	for _, l := range n.layers {
		b = appendF64s(appendF64s(b, l.w), l.b)
		var frozen uint64
		if l.frozen {
			frozen = 1
		}
		b = le.AppendUint64(b, frozen)
	}
	return appendF64s(b, n.Losses), nil
}

func appendF64s(b []byte, s []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	for _, v := range s {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// MarshalState returns the network's resumable training state: the
// model format followed by a training section that holds everything
// else an interrupted run needs to continue bit for bit,
//
//	per layer: Adam step count, len, first moments, len, second moments
//	           of the weights, then the same of the biases |
//	shuffle generator word | lifetime epoch count at which the run began |
//	early stopping: 0 (none), 1 (no best epoch yet) or 2, then best
//	validation loss | epochs since it fell [| per layer: len, weights |
//	len, biases of the best epoch, when 2]
//
// in the model format's integer and float encoding. The state is
// encoded in one pass under the network's mutex. Unlike Save it reads
// the run, so it must not race a training call on another goroutine;
// the training loop calls it between epochs. Resume reads it back.
func (n *Network) MarshalState() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, err := n.appendModel(nil)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	for _, o := range n.opts {
		for _, a := range []*adam{o.w, o.b} {
			b = appendF64s(appendF64s(le.AppendUint64(b, uint64(a.t)), a.m), a.v)
		}
	}
	b = le.AppendUint64(b, n.shuffle.State())
	run := runState{start: len(n.Losses)}
	if n.run != nil {
		run = *n.run
	}
	b = le.AppendUint64(b, uint64(run.start))
	s := run.stop
	switch {
	case s == nil:
		return le.AppendUint64(b, 0), nil
	case s.bestW == nil:
		b = le.AppendUint64(b, 1)
	default:
		b = le.AppendUint64(b, 2)
	}
	b = le.AppendUint64(le.AppendUint64(b, math.Float64bits(s.best)), uint64(s.bad))
	for i := range s.bestW {
		b = appendF64s(appendF64s(b, s.bestW[i]), s.bestB[i])
	}
	return b, nil
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
	n := d.model(1)
	if err := d.end(); err != nil {
		return nil, err
	}
	return n, nil
}

// Resume reads a state written by MarshalState with Load's checks; the
// shape check counts the state's three arrays per parameter (weights
// and two Adam moments), so a state too short for them fails before New
// allocates. The returned network continues training exactly where the
// capture left off: same weights, optimizer moments, loss history,
// learning-rate schedule position, shuffle-generator state and run, so
// resume(k epochs) + (N−k) epochs replays an uninterrupted N-epoch run
// bit for bit (given the same training data and worker count).
func Resume(state []byte) (*Network, error) {
	d := &decoder{b: state}
	n := d.model(3)
	if d.err != nil {
		return nil, d.err
	}
	for i, o := range n.opts {
		for _, a := range []*adam{o.w, o.b} {
			a.t = int(d.u64())
			d.array(i, a.m)
			d.array(i, a.v)
		}
	}
	n.shuffle.SetState(d.u64())
	start := d.u64()
	if d.err == nil && start > uint64(len(n.Losses)) {
		d.err = fmt.Errorf("nn: run starts at epoch %d of %d", start, len(n.Losses))
	}
	n.run = &runState{start: int(start)}
	switch f := d.u64(); f {
	case 0:
	case 1, 2:
		s := &earlyStop{best: math.Float64frombits(d.u64()), bad: int(d.u64())}
		if f == 2 {
			if d.err == nil && !n.cfg.fits(len(d.b)) {
				d.err = errTruncated
			}
			if d.err == nil {
				s.alloc(n.layers)
				for i := range s.bestW {
					d.array(i, s.bestW[i])
					d.array(i, s.bestB[i])
				}
			}
		}
		n.run.stop = s
	default:
		d.err = fmt.Errorf("nn: early-stopping flag %d, want 0, 1 or 2", f)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return n, nil
}

// model decodes the model format up to the end of the loss history.
// The config's weights and biases, times need, must fit in the bytes
// left after its header before New allocates them.
func (d *decoder) model(need int) *Network {
	if v := d.u64(); d.err == nil && v != modelVersion {
		d.err = fmt.Errorf("nn: unsupported model version %d", v)
	}
	var cfg Config
	if raw := d.next(d.u64()); d.err == nil {
		if err := json.Unmarshal(raw, &cfg); err != nil {
			d.err = fmt.Errorf("nn: decoding model config: %w", err)
		}
	}
	layers := d.u64()
	if d.err != nil {
		return nil
	}
	if d.err = cfg.validate(); d.err != nil {
		return nil
	}
	if want := uint64(len(cfg.Hidden) + 1); layers != want {
		d.err = fmt.Errorf("nn: model has %d layers, config implies %d", layers, want)
		return nil
	}
	if !cfg.fits(len(d.b) / need) {
		d.err = fmt.Errorf("nn: config declares more parameters than the model's %d bytes hold", len(d.b))
		return nil
	}
	n, err := New(cfg)
	if err != nil {
		d.err = err
		return nil
	}
	for i, l := range n.layers {
		d.array(i, l.w)
		d.array(i, l.b)
		switch f := d.u64(); f {
		case 0, 1:
			l.frozen = f == 1
		default:
			d.err = fmt.Errorf("nn: layer %d has freeze flag %d, want 0 or 1", i, f)
		}
		l.repack()
	}
	if k := d.u64(); d.err == nil && k > 0 {
		if k > uint64(len(d.b)/8) {
			d.err = errTruncated
			return nil
		}
		n.Losses = make([]float64, k)
		d.f64s(n.Losses)
	}
	return n
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

// array fills dst, an array of layer i, from a length and the values;
// the length must be len(dst).
func (d *decoder) array(i int, dst []float64) {
	if k := d.u64(); d.err == nil && k != uint64(len(dst)) {
		d.err = fmt.Errorf("nn: layer %d array has %d values, config implies %d", i, k, len(dst))
	}
	d.f64s(dst)
}

// end returns the first error, or an error when bytes are left over.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		return fmt.Errorf("nn: %d trailing bytes after the model", len(d.b))
	}
	return d.err
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
		out.layers[i].repack()
		out.layers[i].frozen = l.frozen
	}
	out.Losses = append([]float64(nil), n.Losses...)
	return out, nil
}
