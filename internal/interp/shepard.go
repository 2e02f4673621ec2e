package interp

import (
	"context"
	"math"

	"fillvoid/internal/grid"
	"fillvoid/internal/kdtree"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
)

// Shepard is modified Shepard (Franke–Little) interpolation: inverse
// distance weighting restricted to the K nearest samples with the
// compactly-supported weight
//
//	w_i = ((R - d_i)_+ / (R * d_i))^2
//
// where R is the distance to the K-th neighbor. It is exact at sample
// locations and smoother than plain IDW, matching the photutils-style
// implementation the paper references.
type Shepard struct {
	// K is the neighborhood size; defaults to 12.
	K int
	// Workers bounds the query parallelism (<= 0 means all cores).
	Workers int
}

// Name implements Reconstructor.
func (r *Shepard) Name() string { return "shepard" }

// Reconstruct implements Reconstructor (legacy full-grid path).
func (r *Shepard) Reconstruct(c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// ReconstructRegion implements Reconstructor on the plan's neighbour
// pass: each query's K nearest samples, searched in warm-started tiles
// of consecutive region queries. Neighbour lists are canonical whatever
// the tiling or worker count, so neither can change the result.
func (r *Shepard) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	k := r.K
	if k < 1 {
		k = 12
	}
	if k > c.Len() {
		k = c.Len()
	}
	return p.Neighbors(ctx, region, k, r.Workers, func(_, first int, queries []mathutil.Vec3, nbs []kdtree.Neighbor) error {
		for i := range queries {
			dst[first+i] = shepardValue(c, nbs[i*k:(i+1)*k])
		}
		return nil
	})
}

// shepardValue evaluates the Franke–Little weighted average over the
// sorted neighbor set.
func shepardValue(c *pointcloud.Cloud, nbs []kdtree.Neighbor) float64 {
	if len(nbs) == 0 {
		return 0
	}
	// Coincident sample: exact interpolation.
	const eps2 = 1e-18
	if nbs[0].Dist2 < eps2 {
		return c.Values[nbs[0].Index]
	}
	r2 := nbs[len(nbs)-1].Dist2
	if r2 <= nbs[0].Dist2 {
		// All neighbors at (numerically) the same distance: average.
		sum := 0.0
		for _, nb := range nbs {
			sum += c.Values[nb.Index]
		}
		return sum / float64(len(nbs))
	}
	R := math.Sqrt(r2)
	num, den := 0.0, 0.0
	for _, nb := range nbs {
		d := math.Sqrt(nb.Dist2)
		if d >= R {
			continue
		}
		w := (R - d) / (R * d)
		w *= w
		num += w * c.Values[nb.Index]
		den += w
	}
	if den == 0 {
		return c.Values[nbs[0].Index]
	}
	return num / den
}
