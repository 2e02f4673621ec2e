package interp

import (
	"context"
	"math"

	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
)

// NaturalNeighbor is discrete Sibson interpolation (Park et al., IEEE
// TVCG 2006), the efficient rasterized form of natural-neighbor
// interpolation. The continuous method weights each sample s by the
// volume q's Voronoi cell would steal from s's cell if q were inserted;
// the discrete method measures those volumes by counting grid voxels:
//
//	a voxel x with nearest sample n(x) is "stolen" by a query q
//	exactly when |x - q| < |x - n(x)|,
//
// so every voxel x scatters the value of its nearest sample to all grid
// nodes within radius |x - n(x)| of x. Accumulated sums divided by
// counts give the Sibson estimate.
//
// Box regions keep the scatter form, restricted to the region's output
// nodes but still scanning every full-grid source voxel (the stolen
// volumes are defined on the full grid); the per-voxel nearest table
// comes from the shared plan. Arbitrary point queries use the equivalent
// gather form: accumulate every voxel x with |x - q| < |x - n(x)|.
// The scatter is split by worker: each worker owns one contiguous range
// of output planes, scans each source voxel that can reach the range
// once, and writes only its own planes, so no synchronization is needed
// on the accumulators. A node's contributions arrive in source-scan
// order whatever the ranges are, so sums and counts keep their bits at
// any worker count.
//
// A source voxel s scatters into each grid row as one span of nodes,
// si−n … si+n, added without a test per node. The scatter tests node
// i of a row by dyz2 + (float64(i−si)·Δx)² < d2, with dyz2 the row's
// (dz² + dy²) term. That test depends only on |i−si|, because IEEE
// negation is exact, and it can only turn false as |i−si| grows,
// because every rounding step it takes is monotone. So the nodes it
// admits in a row are exactly those within some offset n of si, and
// the span gives each node the same contributions, in the same order,
// as testing node by node. The same argument makes the row test
// dyz2 < d2 monotone in |j−sj|, so the row walk stops at the first row
// that fails it.
//
// The two forms compute |x - q|² with different float expressions
// (index offsets times spacing, against world positions minus q), and
// at the exact ties a regular grid produces they can round to opposite
// sides of |x - n(x)|². So a query point that equals a grid node's
// position (GridSpec.NodeOf) takes the scatter's arithmetic, scattered
// into a one-node region, and answers bit for bit what the full grid
// holds at that node; only off-grid points take the gather.
type NaturalNeighbor struct {
	// Workers bounds the scatter parallelism (<= 0 means all cores).
	Workers int
}

// Name implements Reconstructor.
func (r *NaturalNeighbor) Name() string { return "natural" }

// Reconstruct implements Reconstructor (legacy full-grid path).
func (r *NaturalNeighbor) Reconstruct(c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// planeMaxD returns, per source z-plane, the maximum scatter radius of
// its voxels — the source-plane culling bound. Memoized on the plan so
// repeated region queries share it.
func (r *NaturalNeighbor) planeMaxD(p *recon.Plan, nearestD2 []float64) []float64 {
	//lint:allow errdrop: the memo builder below always returns a nil error
	v, _ := p.Memo("natural/plane-max-d", func() (any, error) {
		spec := p.Spec()
		nxy := spec.NX * spec.NY
		out := make([]float64, spec.NZ)
		parallel.For(spec.NZ, r.Workers, func(sk int) {
			base := sk * nxy
			maxD2 := 0.0
			for o := 0; o < nxy; o++ {
				if nearestD2[base+o] > maxD2 {
					maxD2 = nearestD2[base+o]
				}
			}
			out[sk] = math.Sqrt(maxD2)
		})
		return out, nil
	})
	return v.([]float64)
}

// ReconstructRegion implements Reconstructor.
func (r *NaturalNeighbor) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	spec := p.Spec()
	// Squared distances are kept exact throughout — taking a square root
	// and re-squaring would flip strict comparisons at the exact ties
	// regular grids produce constantly.
	nearestIdx, nearestD2 := p.NearestTable(r.Workers)
	planeMaxD := r.planeMaxD(p, nearestD2)
	if region.IsPoints() {
		return r.gatherPoints(ctx, p, region.Points, dst, nearestIdx, nearestD2, planeMaxD)
	}

	// Scatter, one contiguous range of output planes per worker, as the
	// neighbour pass splits rows: a source reaching several planes of a
	// range is scanned once for all of them. Accumulators are
	// region-local; sources are the full grid. A cancelled ctx stops
	// every worker at its next source plane.
	sums := make([]float64, region.Len())
	counts := make([]int32, region.Len())
	parallel.ForChunked(region.K1-region.K0, r.Workers, func(zLo, zHi int) {
		//lint:allow errdrop: the only error is ctx's, returned below
		_ = scatterSources(ctx, spec, region, region.K0+zLo, region.K0+zHi, c.Values, nearestIdx, nearestD2, planeMaxD, sums, counts)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	return parallel.ForCtx(ctx, region.Len(), r.Workers, func(m int) error {
		dst[m] = settle(c.Values, nearestIdx, nearestD2, region.GridIndex(spec, m), sums[m], counts[m])
		return nil
	})
}

// scatterSources scatters every full-grid source voxel whose ball can
// reach absolute output planes [kLo, kHi) into region's accumulators,
// in source-scan order. No voxel of source plane sk reaches farther
// than planeMaxD[sk], which bounds scatterBall's index window along
// each axis; so only source planes, rows and columns within that reach
// of [kLo, kHi) and the region's i/j box are scanned, and the sources
// skipped would have scattered nothing into the region. It checks ctx
// before each source plane and returns its error, leaving the
// accumulators partly filled.
func scatterSources(ctx context.Context, spec GridSpec, region recon.Region, kLo, kHi int, values []float64, nearestIdx []int32, nearestD2, planeMaxD, sums []float64, counts []int32) error {
	w := region.I1 - region.I0
	h := region.J1 - region.J0
	nxy := spec.NX * spec.NY
	for sk := 0; sk < spec.NZ; sk++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		base := sk * nxy
		reach := int(planeMaxD[sk]/spec.Spacing.Z) + 1
		if sk+reach < kLo || sk-reach >= kHi {
			continue
		}
		rj := int(planeMaxD[sk]/spec.Spacing.Y) + 1
		ri := int(planeMaxD[sk]/spec.Spacing.X) + 1
		sjMax := min(region.J1-1+rj, spec.NY-1)
		siMax := min(region.I1-1+ri, spec.NX-1)
		for sj := max(region.J0-rj, 0); sj <= sjMax; sj++ {
			for si := max(region.I0-ri, 0); si <= siMax; si++ {
				src := base + sj*spec.NX + si
				d2 := nearestD2[src]
				if d2 == 0 {
					continue // sampled node: no stolen volume
				}
				val := values[nearestIdx[src]]
				scatterBall(spec, region, si, sj, sk, d2, val, kLo, kHi, w, h, sums, counts)
			}
		}
	}
	return nil
}

// settle turns grid node g's accumulated sum and count into its
// estimate. Nodes that coincide with a sample (d = 0) keep the exact
// sampled value — natural neighbor interpolation is exact at the
// samples; nodes nothing scattered to fall back to nearest.
func settle(values []float64, nearestIdx []int32, nearestD2 []float64, g int, sum float64, count int32) float64 {
	if nearestD2[g] != 0 && count > 0 {
		return sum / float64(count)
	}
	return values[nearestIdx[g]]
}

// gatherPoints answers arbitrary query points in the gather form of the
// same discrete-Sibson estimate: accumulate the nearest-sample value of
// every grid voxel x the query would steal (|x - q| < |x - n(x)|). A
// query that is exactly a grid node is instead scattered into a
// one-node region, so it gets the full grid's answer bit for bit.
func (r *NaturalNeighbor) gatherPoints(ctx context.Context, p *recon.Plan, pts []mathutil.Vec3, dst []float64, nearestIdx []int32, nearestD2 []float64, planeMaxD []float64) error {
	c := p.Cloud()
	spec := p.Spec()
	tree := p.Tree()
	return parallel.ForCtx(ctx, len(pts), r.Workers, func(m int) error {
		q := pts[m]
		if i, j, k, ok := spec.NodeOf(q); ok {
			var sum [1]float64
			var count [1]int32
			if err := scatterSources(ctx, spec, recon.Box(i, j, k, i+1, j+1, k+1), k, k+1, c.Values, nearestIdx, nearestD2, planeMaxD, sum[:], count[:]); err != nil {
				return err
			}
			dst[m] = settle(c.Values, nearestIdx, nearestD2, i+spec.NX*(j+spec.NY*k), sum[0], count[0])
			return nil
		}
		bi, bd2 := tree.Nearest(q)
		if bd2 == 0 {
			dst[m] = c.Values[bi]
			return nil
		}
		sum := 0.0
		count := 0
		for sk := 0; sk < spec.NZ; sk++ {
			dz := spec.Origin.Z + float64(sk)*spec.Spacing.Z - q.Z
			if math.Abs(dz) >= planeMaxD[sk] {
				continue
			}
			dz2 := dz * dz
			base := sk * spec.NX * spec.NY
			for sj := 0; sj < spec.NY; sj++ {
				dy := spec.Origin.Y + float64(sj)*spec.Spacing.Y - q.Y
				dyz2 := dz2 + dy*dy
				row := base + sj*spec.NX
				for si := 0; si < spec.NX; si++ {
					src := row + si
					d2 := nearestD2[src]
					if d2 == 0 {
						continue
					}
					dx := spec.Origin.X + float64(si)*spec.Spacing.X - q.X
					if dyz2+dx*dx < d2 {
						sum += c.Values[nearestIdx[src]]
						count++
					}
				}
			}
		}
		if count > 0 {
			dst[m] = sum / float64(count)
		} else {
			dst[m] = c.Values[bi]
		}
		return nil
	})
}

// scatterBall adds val to every region output node whose squared
// distance to the source node (si, sj, sk) is strictly below d2,
// restricted to absolute output planes [kLo, kHi) and the region's i/j
// box. The sqrt only sizes an index window around the source; the
// inclusion test uses d2 exactly, with the squared offsets summed as
// (dz² + dy²) + dx². w and h are the region's x/y extents for
// region-local indexing.
//
// Each row's admitted nodes form one span, si−n … si+n (see
// NaturalNeighbor), found without testing every node: the rows of a
// plane are walked outward from sj, up and then down, and n carries
// over from the row before, shrinking while the row's test fails at
// offset n. A direction stops at its first row with dyz2 ≥ d2, which
// admits nothing, as every row beyond it also admits nothing.
func scatterBall(spec GridSpec, region recon.Region, si, sj, sk int, d2, val float64, kLo, kHi, w, h int, sums []float64, counts []int32) {
	d := math.Sqrt(d2)
	ri := int(d/spec.Spacing.X) + 1
	rj := int(d/spec.Spacing.Y) + 1
	rk := int(d/spec.Spacing.Z) + 1
	kMin := max(sk-rk, kLo)
	kMax := min(sk+rk, kHi-1)
	jMin := max(sj-rj, region.J0)
	jMax := min(sj+rj, region.J1-1)
	for k := kMin; k <= kMax; k++ {
		dz := float64(k-sk) * spec.Spacing.Z
		dz2 := dz * dz
		if dz2 >= d2 {
			continue
		}
		plane := w * h * (k - region.K0)
		// Up from sj, then down from sj−1.
		for _, step := range [2]int{1, -1} {
			j := max(sj, jMin)
			if step < 0 {
				j = min(sj-1, jMax)
			}
			for n := ri; jMin <= j && j <= jMax; j += step {
				dy := float64(j-sj) * spec.Spacing.Y
				dyz2 := dz2 + dy*dy
				if dyz2 >= d2 {
					break
				}
				for n > 0 {
					dx := float64(n) * spec.Spacing.X
					if dyz2+dx*dx < d2 {
						break
					}
					n--
				}
				lo := max(si-n, region.I0)
				hi := min(si+n, region.I1-1)
				if lo > hi {
					continue
				}
				m := plane + w*(j-region.J0) - region.I0
				s := sums[m+lo : m+hi+1]
				c := counts[m+lo : m+hi+1][:len(s)]
				for x := range s {
					s[x] += val
					c[x]++
				}
			}
		}
	}
}
