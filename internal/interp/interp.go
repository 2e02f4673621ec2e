// Package interp implements the rule-based point-cloud reconstruction
// baselines the paper compares against (Section III-B): nearest
// neighbor, modified Shepard inverse-distance weighting, discrete-Sibson
// natural neighbor, local radial basis functions, and an adapter over
// the Delaunay piecewise-linear interpolator. All methods implement
// recon.Reconstructor and execute through the shared recon engine: a
// query Plan (validated cloud, k-d tree, neighbour pass, nearest-sample
// table) built once per (cloud, grid) pair, cancellable chunked
// execution, and region-of-interest queries.
package interp

import (
	"context"

	"fillvoid/internal/grid"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
)

// GridSpec describes the output grid a reconstructor must fill. It is
// the engine's recon.GridSpec; the alias keeps this package's historical
// surface.
type GridSpec = recon.GridSpec

// SpecOf extracts the spec of an existing volume (the usual case:
// reconstruct back onto the original simulation grid).
func SpecOf(v *grid.Volume) GridSpec { return recon.SpecOf(v) }

// Reconstructor is the engine's method interface (see
// recon.Reconstructor): legacy full-grid Reconstruct plus the
// plan-sharing, cancellable ReconstructRegion.
type Reconstructor = recon.Reconstructor

// ErrEmptyCloud is returned when a reconstructor receives no samples.
var ErrEmptyCloud = recon.ErrEmptyCloud

// Nearest assigns each grid point the value of its closest sample —
// fast, but blocky at sparse sampling (the paper's weakest baseline).
type Nearest struct {
	// Workers bounds the query parallelism (<= 0 means all cores).
	Workers int
}

// Name implements Reconstructor.
func (r *Nearest) Name() string { return "nearest" }

// Reconstruct implements Reconstructor (legacy full-grid path).
func (r *Nearest) Reconstruct(c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), r, c, spec)
}

// ReconstructRegion implements Reconstructor: the plan's NearestFor
// answers are exactly the nearest-sample table's, so this is a lookup.
func (r *Nearest) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	idx, _, err := p.NearestFor(ctx, region, r.Workers)
	if err != nil {
		return err
	}
	vals := p.Cloud().Values
	for m := range dst {
		dst[m] = vals[idx[m]]
	}
	return nil
}

// StandardRegistry returns a registry with every rule-based baseline
// registered under its paper name: nearest, shepard, natural, rbf,
// linear, and linear-seq (the sequential Fig 10 timing variant). Neural
// methods (fcnn) are registered by callers holding a trained model.
func StandardRegistry(workers int) *recon.Registry {
	reg := recon.NewRegistry()
	reg.RegisterMethod(&Nearest{Workers: workers})
	reg.RegisterMethod(&Shepard{Workers: workers})
	reg.RegisterMethod(&NaturalNeighbor{Workers: workers})
	reg.RegisterMethod(&RBF{Workers: workers})
	// Registered by name: at workers == 1, Linear names itself
	// "linear-seq", and RegisterMethod would leave no "linear" entry.
	reg.Register("linear", func() (recon.Reconstructor, error) {
		return &Linear{Workers: workers}, nil
	})
	reg.Register("linear-seq", func() (recon.Reconstructor, error) {
		return &Linear{Workers: 1}, nil
	})
	return reg
}

// BaselineNames lists the rule-based methods in the order the paper's
// figures present them.
func BaselineNames() []string {
	return []string{"linear", "natural", "shepard", "nearest"}
}
