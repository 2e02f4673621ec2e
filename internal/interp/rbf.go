package interp

import (
	"context"
	"fmt"
	"math"

	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
)

// RBF is local radial-basis-function interpolation over the K nearest
// samples: per query, solve the constant-augmented (K+1)×(K+1) system
// and evaluate sum_i w_i phi(|q - p_i|) + c. The paper measured RBFs
// ("such as thin-plate splines") as far slower than the other methods
// for no quality gain and excluded them from the main experiments; the
// implementation is kept for the same comparison (and it is indeed the
// slowest method here).
type RBF struct {
	// K is the local stencil size; defaults to 16.
	K int
	// Kernel selects the basis function: "imq" (inverse multiquadric,
	// the default — best conditioned on near-regular sample layouts) or
	// "tps" (thin-plate spline r^2 log r, the variant the paper names).
	Kernel string
	// Shape is the kernel width multiplier relative to the local
	// neighbor spacing (imq only); defaults to 1.
	Shape float64
	// Ridge is the diagonal regularization added to the kernel matrix;
	// defaults to 1e-8.
	Ridge float64
	// Workers bounds the query parallelism (<= 0 means all cores).
	Workers int
}

// Name implements Reconstructor.
func (r *RBF) Name() string { return "rbf" }

// Reconstruct implements Reconstructor (legacy full-grid path).
func (r *RBF) Reconstruct(c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// ReconstructRegion implements Reconstructor: per-query local solves
// over the K-NN lists of the plan's neighbour pass.
func (r *RBF) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	k := r.K
	if k < 1 {
		k = 16
	}
	if k > c.Len() {
		k = c.Len()
	}
	shape := r.Shape
	if shape <= 0 {
		shape = 1
	}
	ridge := r.Ridge
	if ridge <= 0 {
		ridge = 1e-8
	}
	kernel := r.Kernel
	if kernel == "" {
		kernel = "imq"
	}
	if kernel != "imq" && kernel != "tps" {
		return fmt.Errorf("interp: unknown RBF kernel %q (want imq or tps)", kernel)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	// One solve matrix and right-hand side per worker of the pass, made
	// when the worker's first tile arrives; rbfValue rewrites every
	// entry it reads, so a pair carries nothing from one query to the
	// next.
	scratch := make([][]float64, workers)
	dim := k + 1
	return p.Neighbors(ctx, region, k, workers, func(w, first int, queries []mathutil.Vec3, nbs []kdtree.Neighbor) error {
		if scratch[w] == nil {
			scratch[w] = make([]float64, dim*dim+dim)
		}
		mat, rhs := scratch[w][:dim*dim], scratch[w][dim*dim:]
		for i, q := range queries {
			dst[first+i] = rbfValue(c, nbs[i*k:(i+1)*k], q, kernel, shape, ridge, mat, rhs)
		}
		return nil
	})
}

func rbfValue(c *pointcloud.Cloud, nbs []kdtree.Neighbor, q mathutil.Vec3, kernel string, shape, ridge float64, mat, rhs []float64) float64 {
	m := len(nbs)
	if m == 0 {
		return 0
	}
	if nbs[0].Dist2 < 1e-18 {
		return c.Values[nbs[0].Index]
	}
	// Kernel width from the median neighbor distance adapts to the
	// local sampling density (imq); tps is parameter-free.
	h := math.Sqrt(nbs[m/2].Dist2) * shape
	if h == 0 {
		return c.Values[nbs[0].Index]
	}
	h2 := h * h
	var phi func(d2 float64) float64
	if kernel == "tps" {
		// Thin-plate spline r^2 log r, with phi(0) = 0.
		phi = func(d2 float64) float64 {
			if d2 <= 0 {
				return 0
			}
			return 0.5 * d2 * math.Log(d2) // == r^2 log r
		}
	} else {
		// Inverse multiquadric: far better conditioned than a Gaussian
		// on near-regular sample layouts.
		phi = func(d2 float64) float64 { return 1 / math.Sqrt(d2+h2) }
	}

	// Augmented system with a constant polynomial term: without it a
	// decaying kernel cannot reproduce constants, and scientific fields
	// with large offsets (pressure ~1000 hPa) reconstruct terribly.
	//
	//	[ Phi  1 ] [w]   [f]
	//	[ 1^T  0 ] [c] = [0]
	dim := m + 1
	mat = mat[:dim*dim]
	rhs = rhs[:dim]
	for i := 0; i < m; i++ {
		pi := c.Points[nbs[i].Index]
		for j := 0; j < m; j++ {
			d2 := pi.Dist2(c.Points[nbs[j].Index])
			mat[i*dim+j] = phi(d2)
		}
		mat[i*dim+i] += ridge * phi(0)
		mat[i*dim+m] = 1
		mat[m*dim+i] = 1
		rhs[i] = c.Values[nbs[i].Index]
	}
	mat[m*dim+m] = 0
	rhs[m] = 0
	if err := mathutil.SolveLinear(mat, rhs); err != nil {
		// Degenerate stencil: fall back to the nearest sample.
		return c.Values[nbs[0].Index]
	}
	val := rhs[m] // constant term
	for i := 0; i < m; i++ {
		val += rhs[i] * phi(nbs[i].Dist2)
	}
	// The Gaussian kernel matrix is ill-conditioned when samples sit on
	// near-regular grids, which can produce wild oscillations between
	// samples. Clamp to the stencil's value range — interpolation, not
	// extrapolation (the paper notes RBFs "may produce poor results";
	// this keeps poor bounded).
	lo, hi := c.Values[nbs[0].Index], c.Values[nbs[0].Index]
	for _, nb := range nbs[1:] {
		v := c.Values[nb.Index]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return mathutil.Clamp(val, lo, hi)
}
