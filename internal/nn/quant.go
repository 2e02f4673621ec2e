package nn

import (
	"fmt"
	"math"

	"fillvoid/internal/mathutil"
)

// Quantized inference: weights stored as IEEE 754 binary16 halves or as
// int8 with one scale per layer, expanded layer by layer straight into
// the kernels' packed f64 layout, which the full-precision kernel then
// runs on. The dot products themselves always run in float64 —
// quantization only compresses the stored weights (4x for int8, 2x for
// f16) and trades a bounded amount of accuracy, which the golden-SNR
// harness pins per mode. Biases stay float64: they are O(width) per
// layer, too small to be worth compressing.

// QuantMode selects the weight storage of a Quantized network.
type QuantMode int

const (
	QuantNone QuantMode = iota // full float64 weights
	QuantF16                   // binary16 weights
	QuantInt8                  // int8 weights with a per-layer scale
)

// String returns the CLI spelling of the mode.
func (m QuantMode) String() string {
	switch m {
	case QuantF16:
		return "f16"
	case QuantInt8:
		return "int8"
	default:
		return "none"
	}
}

// ParseQuantMode parses the CLI/API spelling of a quantization mode.
// Empty, "none" and "f64" all mean full precision.
func ParseQuantMode(s string) (QuantMode, error) {
	switch s {
	case "", "none", "f64":
		return QuantNone, nil
	case "f16":
		return QuantF16, nil
	case "int8":
		return QuantInt8, nil
	default:
		return QuantNone, fmt.Errorf("nn: unknown quant mode %q (want f16, int8 or none)", s)
	}
}

// quantDense is one layer with compressed weights. Exactly one of f16
// or q8 is populated, matching the parent's mode. b is padded with
// zeros to a multiple of eight outputs, as the kernels read it.
type quantDense struct {
	in, out int
	relu    bool
	b       []float64
	f16     []uint16
	q8      []int8
	scale   float64 // int8 dequantization scale
}

// Quantized is an immutable compressed snapshot of a trained Network,
// usable only for inference via PredictInto. Snapshots are safe for
// concurrent use from any number of goroutines (each with its own
// InferenceBuffers).
type Quantized struct {
	cfg    Config
	mode   QuantMode
	layers []quantDense
}

// Quantize captures a compressed snapshot of the network's current
// weights. The snapshot is taken under the weight mutex, so it is
// consistent even while the network fine-tunes. mode must be QuantF16
// or QuantInt8.
func (n *Network) Quantize(mode QuantMode) (*Quantized, error) {
	if mode != QuantF16 && mode != QuantInt8 {
		return nil, fmt.Errorf("nn: cannot quantize to mode %v", mode)
	}
	q := &Quantized{cfg: n.cfg, mode: mode}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.layers {
		ql := quantDense{in: l.in, out: l.out, relu: l.relu, b: append([]float64(nil), l.pb...)}
		switch mode {
		case QuantF16:
			ql.f16 = make([]uint16, len(l.w))
			for i, w := range l.w {
				ql.f16[i] = mathutil.F16Encode(w)
			}
		case QuantInt8:
			maxAbs := 0.0
			for _, w := range l.w {
				if a := math.Abs(w); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs == 0 {
				maxAbs = 1 // all-zero layer: any scale maps 0 -> 0
			}
			ql.scale = maxAbs / 127
			ql.q8 = make([]int8, len(l.w))
			for i, w := range l.w {
				v := math.RoundToEven(w / ql.scale)
				if v > 127 {
					v = 127
				} else if v < -127 {
					v = -127
				}
				ql.q8[i] = int8(v)
			}
		}
		q.layers = append(q.layers, ql)
	}
	return q, nil
}

// Config returns the architecture configuration of the snapshot.
func (q *Quantized) Config() Config { return q.cfg }

// Mode returns the weight storage mode.
func (q *Quantized) Mode() QuantMode { return q.mode }

// NewInferenceBuffers allocates activation buffers for PredictInto
// batches of up to maxRows rows.
func (q *Quantized) NewInferenceBuffers(maxRows int) *InferenceBuffers {
	return newInferenceBuffers(q.cfg.layerWidths(), maxRows)
}

// PredictInto runs the forward pass with on-the-fly weight expansion:
// each layer's compressed weights are expanded into buf once per call,
// straight into the kernels' packed layout, and then run on the
// full-precision kernel, so the expansion cost is amortized over the
// batch. Zero heap allocations per call.
func (q *Quantized) PredictInto(x, out *Matrix, buf *InferenceBuffers) error {
	if err := checkPredictInto(q.cfg, x, out, buf); err != nil {
		return err
	}
	cur := x.Data
	for li := range q.layers {
		l := &q.layers[li]
		dst := out.Data
		if li < len(q.layers)-1 {
			dst = buf.acts[li][:x.Rows*l.out]
		}
		wp := buf.pack[:l.in*len(l.b)]
		l.expand(wp)
		denseForward(cur, x.Rows, l.in, wp, l.b, l.out, l.relu, dst, &buf.padScratch)
		cur = dst
	}
	return nil
}

// expand writes the layer's weights as float64 into pack, in
// packWeights' layout with zero padding outputs.
func (l *quantDense) expand(pack []float64) {
	in := l.in
	clearPad(pack, in, l.out)
	for o := 0; o < l.out; o++ {
		p := pack[(o&^7)*in+o%8:]
		if l.f16 != nil {
			for i, h := range l.f16[o*in : (o+1)*in] {
				p[8*i] = mathutil.F16Decode(h)
			}
			continue
		}
		for i, qv := range l.q8[o*in : (o+1)*in] {
			p[8*i] = l.scale * float64(qv)
		}
	}
}
