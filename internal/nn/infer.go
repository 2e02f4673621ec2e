package nn

import "fmt"

// This file is the fused batched-inference path: caller-owned buffers
// around one dense-layer block driver, denseForward (dense.go), so
// steady-state inference over a stream of chunks performs zero heap
// allocations. Every dense GEMM in the package runs through that
// driver: the forward pass of PredictInto, Predict, the quantized views
// and training, and both products of training's backward pass
// (denseBackward in layer.go), dW = dZᵀ·X and dX = dZ·W, through gemm.
// The driver runs on the widest kernel the CPU has, chosen once at
// start-up from CPUID: on amd64, an AVX-512F micro-kernel over 8-row ×
// 8-output blocks, else an AVX one over 4-row × 8-output blocks
// (dense_amd64.s), else, as on every other GOARCH, the pure-Go
// denseForwardBlocked. It pads a partial row block and a partial output
// block with zeros through a temp, so every element of every shape
// comes from that one kernel. A full-precision network keeps its
// weights packed and padded in the kernels' layout, rebuilt whenever
// they change; a quantized view expands its weights straight into that
// layout in the buffers, once per layer per call. All kernels are
// bit-identical to a row-at-a-time scalar loop: every element's
// accumulator starts at the bias (+0 for the backward products) and
// adds its products with the reduction index ascending, each product
// and each sum rounded on its own (no fused multiply-add), so blocking,
// padding and vectorising change only how fast the values are
// produced.

// Predictor is the fused inference contract shared by the
// full-precision Network and its Quantized variants: size buffers once
// with NewInferenceBuffers, then stream batches through PredictInto.
type Predictor interface {
	Config() Config
	NewInferenceBuffers(maxRows int) *InferenceBuffers
	PredictInto(x, out *Matrix, buf *InferenceBuffers) error
}

// InferenceBuffers holds the per-layer activation storage reused across
// PredictInto calls. One buffer set serves one goroutine at a time;
// concurrent workers each own their own set. The same buffers work for
// the full-precision network and any Quantized variant of the same
// architecture.
type InferenceBuffers struct {
	maxRows int
	// acts[li] backs layer li's activation block (maxRows × width of
	// layer li). The final layer writes into the caller's out matrix
	// directly, but its slot is still allocated so buffers built from a
	// config serve any same-shaped network.
	acts [][]float64
	// pack receives a quantized layer's weights, expanded into the
	// kernels' packed layout; it is sized for the largest layer. The
	// full-precision network reads its own packed weights instead.
	pack []float64
	// padScratch holds the padded blocks of every layer.
	padScratch
}

// MaxRows returns the batch capacity the buffers were sized for.
func (b *InferenceBuffers) MaxRows() int { return b.maxRows }

// newInferenceBuffers sizes buffers for a network with the given layer
// widths (widths[0] is the input width).
func newInferenceBuffers(widths []int, maxRows int) *InferenceBuffers {
	if maxRows < 1 {
		maxRows = 1
	}
	b := &InferenceBuffers{maxRows: maxRows}
	for i := 1; i < len(widths); i++ {
		in, out := widths[i-1], widths[i]
		b.acts = append(b.acts, make([]float64, maxRows*out))
		grow(&b.pack, in*((out+7)&^7))
		b.padScratch.fit(maxRows, in, out)
	}
	return b
}

// layerWidths returns [In, Hidden..., Out] for a config.
func (c Config) layerWidths() []int {
	return append(append([]int{c.In}, c.Hidden...), c.Out)
}

// NewInferenceBuffers allocates activation buffers for PredictInto
// batches of up to maxRows rows.
func (n *Network) NewInferenceBuffers(maxRows int) *InferenceBuffers {
	return newInferenceBuffers(n.cfg.layerWidths(), maxRows)
}

// PredictInto runs the forward pass for x (rows × In) into out (rows ×
// Out) on the calling goroutine, reusing buf for every intermediate
// activation: zero heap allocations per call. Results are bit-identical
// to Predict. The caller must not run PredictInto concurrently with
// training on the same network, and each goroutine needs its own buf.
func (n *Network) PredictInto(x, out *Matrix, buf *InferenceBuffers) error {
	if err := checkPredictInto(n.cfg, x, out, buf); err != nil {
		return err
	}
	cur := x.Data
	for li, l := range n.layers {
		dst := out.Data
		if li < len(n.layers)-1 {
			dst = buf.acts[li][:x.Rows*l.out]
		}
		denseForward(cur, x.Rows, l.in, l.pw, l.pb, l.out, l.relu, dst, &buf.padScratch)
		cur = dst
	}
	return nil
}

func checkPredictInto(cfg Config, x, out *Matrix, buf *InferenceBuffers) error {
	if x.Cols != cfg.In {
		return fmt.Errorf("nn: input width %d, want %d", x.Cols, cfg.In)
	}
	if out.Cols != cfg.Out || out.Rows != x.Rows {
		return fmt.Errorf("nn: output shape %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows, cfg.Out)
	}
	if buf == nil || x.Rows > buf.maxRows {
		return fmt.Errorf("nn: inference buffers too small for %d rows", x.Rows)
	}
	if len(buf.acts) != len(cfg.Hidden)+1 {
		return fmt.Errorf("nn: inference buffers built for %d layers, want %d", len(buf.acts), len(cfg.Hidden)+1)
	}
	in := cfg.In
	for li, act := range buf.acts {
		width := cfg.Out
		if li < len(cfg.Hidden) {
			width = cfg.Hidden[li]
		}
		if len(act) < x.Rows*width || len(buf.pack) < in*((width+7)&^7) || !buf.padScratch.fits(x.Rows, in, width) {
			return fmt.Errorf("nn: inference buffers too small for layer %d (%d→%d) at %d rows", li, in, width, x.Rows)
		}
		in = width
	}
	return nil
}
