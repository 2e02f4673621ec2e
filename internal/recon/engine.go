package recon

import (
	"context"
	"fmt"

	"fillvoid/internal/grid"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/telemetry"
)

// Reconstruct runs m over region using the shared plan and returns a
// volume shaped like the region (the full spec grid for Full regions,
// the box extent for sub-boxes, an n×1×1 row for point lists). The
// volume's origin is the region's world origin so sub-box outputs stay
// geometrically placed.
func Reconstruct(ctx context.Context, m Reconstructor, p *Plan, region Region) (*grid.Volume, error) {
	if err := region.Validate(p.spec); err != nil {
		return nil, err
	}
	nx, ny, nz := region.Dims()
	out := grid.NewWithGeometry(nx, ny, nz, region.Origin(p.spec), p.spec.Spacing)
	if err := execute(ctx, m, p, region, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructInto runs m over region writing into out, which must
// already have the region's dimensions. Callers like the stream
// pipeline reuse one output volume across timesteps to avoid
// re-allocating full-grid buffers.
func ReconstructInto(ctx context.Context, m Reconstructor, p *Plan, region Region, out *grid.Volume) error {
	if err := region.Validate(p.spec); err != nil {
		return err
	}
	nx, ny, nz := region.Dims()
	if out.NX != nx || out.NY != ny || out.NZ != nz {
		return fmt.Errorf("recon: output volume %dx%dx%d does not match region %dx%dx%d",
			out.NX, out.NY, out.NZ, nx, ny, nz)
	}
	return execute(ctx, m, p, region, out.Data)
}

// ReconstructPoints evaluates m at arbitrary world-space points.
func ReconstructPoints(ctx context.Context, m Reconstructor, p *Plan, pts []mathutil.Vec3) ([]float64, error) {
	dst := make([]float64, len(pts))
	if len(pts) == 0 {
		return dst, nil
	}
	if err := execute(ctx, m, p, PointList(pts), dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReconstructCloud is the legacy full-grid path: build a private plan
// for (c, spec) and run m over the whole grid. Concrete methods
// implement their legacy Reconstruct via this, so the engine is the
// only execution path.
func ReconstructCloud(ctx context.Context, m Reconstructor, c *pointcloud.Cloud, spec GridSpec) (*grid.Volume, error) {
	p, err := NewPlan(c, spec)
	if err != nil {
		return nil, err
	}
	return Reconstruct(ctx, m, p, Full(spec))
}

func execute(ctx context.Context, m Reconstructor, p *Plan, region Region, dst []float64) error {
	ctx, sp := telemetry.Default().Start(ctx, "recon/execute")
	defer sp.End()
	if t := telemetry.Default(); t.Enabled() {
		t.Counter("recon.execute.runs").Inc()
		t.Counter("recon.execute.points").Add(int64(region.Len()))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.ReconstructRegion(ctx, p, region, dst)
}
