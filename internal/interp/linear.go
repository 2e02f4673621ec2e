package interp

import (
	"context"

	"fillvoid/internal/delaunay"
	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/telemetry"
)

// Linear is Delaunay-triangulation piecewise-linear interpolation — the
// strongest rule-based baseline in the paper. The triangulation is
// built once per plan (memoized, so region queries and repeated runs
// against the same cloud share it); grid queries then walk the mesh and
// evaluate barycentric weights. Workers = 1 reproduces the paper's
// "naive sequential" timing line; Workers <= 0 uses every core and
// reproduces the "CGAL + OpenMP" line in Fig 10 (reconstruction time
// only — the build is sequential in both configurations, as in the
// paper, where triangulation construction is also serial per timestep).
//
// Queries outside the convex hull of the samples fall back to the
// nearest sample value.
type Linear struct {
	// Workers bounds the query parallelism: 1 = sequential baseline,
	// <= 0 = all cores.
	Workers int
}

// Name implements Reconstructor.
func (r *Linear) Name() string {
	if r.Workers == 1 {
		return "linear-seq"
	}
	return "linear"
}

// Reconstruct implements Reconstructor (legacy full-grid path).
func (r *Linear) Reconstruct(c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// ReconstructRegion implements Reconstructor. The tetrahedralization is
// the per-method state worth sharing across queries, so it lives in the
// plan's memo under "delaunay".
func (r *Linear) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	c := p.Cloud()
	if c.Len() < 4 {
		// Too few points to triangulate: degrade to nearest neighbor.
		nn := &Nearest{Workers: r.Workers}
		return nn.ReconstructRegion(ctx, p, region, dst)
	}
	v, err := p.Memo("delaunay", func() (any, error) {
		// One delaunay/build span per mesh, under the query that built
		// it; the other queries on the plan share the mesh.
		reg := telemetry.Default()
		_, sp := reg.Start(ctx, "delaunay/build")
		defer sp.End()
		tri, err := delaunay.Build(c.Points, c.Values)
		if err != nil {
			sp.SetError(err.Error())
			return nil, err
		}
		reg.Counter("delaunay.tets_created").Add(int64(tri.TetsCreated()))
		return tri, nil
	})
	if err != nil {
		return err
	}
	tri := v.(*delaunay.Triangulation)
	tree := p.Tree()
	spec := p.Spec()
	// Chunked so each tile's Locator benefits from the spatial coherence
	// of consecutive grid indices (short mesh walks). A box's positions
	// are stepped in row order through GridSpec.Point, the bits
	// Region.PointAt gives without its division per node.
	return parallel.ForChunkedCtx(ctx, region.Len(), r.Workers, func(start, end int) error {
		loc := tri.NewLocator()
		var i, j, k int
		if !region.IsPoints() {
			i, j, k = region.Coords(start)
		}
		for m := start; m < end; m++ {
			var q mathutil.Vec3
			if region.IsPoints() {
				q = region.Points[m]
			} else {
				q = spec.Point(i, j, k)
				if i++; i == region.I1 {
					i = region.I0
					if j++; j == region.J1 {
						j = region.J0
						k++
					}
				}
			}
			if val, ok := loc.Interpolate(q); ok {
				dst[m] = val
				continue
			}
			if i, _ := tree.Nearest(q); i >= 0 {
				dst[m] = c.Values[i]
			}
		}
		return nil
	})
}
