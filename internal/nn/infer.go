package nn

import "fmt"

// This file is the fused batched-inference path: caller-owned buffers
// around one dense-layer kernel, denseForward, so steady-state inference
// over a stream of chunks performs zero heap allocations. Every forward
// pass in the package runs through denseForward: PredictInto, Predict,
// the quantized views and training. On amd64 it is a packed-SSE2
// micro-kernel (dense_amd64.s); on every other GOARCH, and for the rows
// and outputs that do not fill a 4×4 block, it is denseForwardBlocked.
// Both are bit-identical to a row-at-a-time scalar loop: for every
// (row, output) pair the accumulator starts at the bias and adds
// w[i]*x[i] with i ascending, each product and each sum rounded on its
// own (no fused multiply-add), so blocking and vectorising change only
// how fast the values are produced.

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
	// w receives a quantized layer's expanded weights and pack the
	// current layer's weights in the micro-kernel's interleaved layout;
	// both are sized for the largest layer (in × out).
	w, pack []float64
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
	maxW := 0
	for i := 1; i < len(widths); i++ {
		b.acts = append(b.acts, make([]float64, maxRows*widths[i]))
		maxW = max(maxW, widths[i-1]*widths[i])
	}
	b.w = make([]float64, maxW)
	b.pack = make([]float64, maxW)
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
		denseForward(cur, x.Rows, l.in, l.w, l.b, l.out, l.relu, dst, buf.pack)
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
		if len(act) < x.Rows*width || len(buf.w) < in*width || len(buf.pack) < in*width {
			return fmt.Errorf("nn: inference buffers too small for layer %d (%d→%d) at %d rows", li, in, width, x.Rows)
		}
		in = width
	}
	return nil
}

// denseForwardBlocked is the portable affine+ReLU kernel for outputs
// [o0, nout) of every row: x is (rows × in) row-major, dst is (rows ×
// nout) row-major. Rows are processed four at a time so each weight row
// streams from cache once per four samples (the layer weights are the
// large operand; inputs are a handful of floats per row).
func denseForwardBlocked(x []float64, rows, in int, w, b []float64, nout, o0 int, relu bool, dst []float64) {
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		d0 := dst[(r+0)*nout : (r+1)*nout]
		d1 := dst[(r+1)*nout : (r+2)*nout]
		d2 := dst[(r+2)*nout : (r+3)*nout]
		d3 := dst[(r+3)*nout : (r+4)*nout]
		for o := o0; o < nout; o++ {
			wo := w[o*in : (o+1)*in]
			bo := b[o]
			s0, s1, s2, s3 := bo, bo, bo, bo
			for i, wi := range wo {
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
			}
			if relu {
				if s0 < 0 {
					s0 = 0
				}
				if s1 < 0 {
					s1 = 0
				}
				if s2 < 0 {
					s2 = 0
				}
				if s3 < 0 {
					s3 = 0
				}
			}
			d0[o], d1[o], d2[o], d3[o] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		xr := x[r*in : (r+1)*in]
		dr := dst[r*nout : (r+1)*nout]
		for o := o0; o < nout; o++ {
			wo := w[o*in : (o+1)*in]
			s := b[o]
			for i, wi := range wo {
				s += wi * xr[i]
			}
			if relu && s < 0 {
				s = 0
			}
			dr[o] = s
		}
	}
}
