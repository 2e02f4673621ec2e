package nn

import "math"

// dense is one fully connected layer: y = act(x W^T + b), with weights
// stored output-major (W[o*in+i]).
type dense struct {
	in, out int
	w       []float64
	b       []float64
	relu    bool // ReLU after affine; the final layer is linear
	frozen  bool // skip the optimizer update (Case 2 fine-tuning)
}

func newDense(in, out int, relu bool) *dense {
	return &dense{in: in, out: out, w: make([]float64, in*out), b: make([]float64, out), relu: relu}
}

// initHe applies He (Kaiming) initialization, the standard scheme for
// ReLU networks: w ~ N(0, sqrt(2/fan_in)).
func (l *dense) initHe(rnd interface{ NormFloat64() float64 }) {
	std := math.Sqrt(2 / float64(l.in))
	for i := range l.w {
		l.w[i] = rnd.NormFloat64() * std
	}
	for i := range l.b {
		l.b[i] = 0
	}
}

// backward consumes dA (gradient wrt this layer's activation), converts
// it through the ReLU to dZ in place, accumulates weight/bias gradients
// into gw/gb, and writes the gradient wrt the input into dX (when
// non-nil; the first layer skips it).
func (l *dense) backward(x, z, dA *Matrix, gw, gb []float64, dX *Matrix) {
	n := x.Rows
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		zr := z.Row(r)
		dr := dA.Row(r)
		if l.relu {
			for o := 0; o < l.out; o++ {
				if zr[o] <= 0 {
					dr[o] = 0
				}
			}
		}
		for o := 0; o < l.out; o++ {
			d := dr[o]
			if d == 0 {
				continue
			}
			gb[o] += d
			gwRow := gw[o*l.in : (o+1)*l.in]
			for i, xi := range xr {
				gwRow[i] += d * xi
			}
		}
		if dX != nil {
			dxr := dX.Row(r)
			for i := range dxr {
				dxr[i] = 0
			}
			for o := 0; o < l.out; o++ {
				d := dr[o]
				if d == 0 {
					continue
				}
				w := l.w[o*l.in : (o+1)*l.in]
				for i, wi := range w {
					dxr[i] += d * wi
				}
			}
		}
	}
}

// paramCount returns the number of trainable scalars in the layer.
func (l *dense) paramCount() int { return len(l.w) + len(l.b) }
