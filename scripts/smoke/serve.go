package main

import (
	"context"
	"fmt"
	"time"
)

// serveScenario boots one server on an ephemeral port, uploads a small
// cloud, runs two ROI reconstructions (the second must hit the plan
// cache), checks /healthz, and SIGTERMs the server for a graceful
// drain.
func serveScenario(ctx context.Context, h *harness) error {
	p, err := h.start(ctx, "server")
	if err != nil {
		return err
	}
	pts := randomCloud(1, 500, func(x, y, z float64) float64 { return x + 2*y - z })
	cloudID, err := upload(ctx, p.Base, pts)
	if err != nil {
		return err
	}
	fmt.Printf("smoke serve: uploaded cloud %s\n", cloudID)

	req := map[string]any{"method": "nearest", "cloud_id": cloudID, "grid": grid16, "region": roiBox}
	for i, wantCached := range []bool{false, true} {
		var r reconstruction
		if err := call(ctx, p.Base+"/v1/reconstruct", req, &r); err != nil {
			return fmt.Errorf("reconstruct %d: %w", i+1, err)
		}
		if len(r.Values) != roiLen {
			return fmt.Errorf("reconstruct %d returned %d values, want %d", i+1, len(r.Values), roiLen)
		}
		if r.PlanCached != wantCached {
			return fmt.Errorf("reconstruct %d plan_cached=%v, want %v", i+1, r.PlanCached, wantCached)
		}
	}
	fmt.Println("smoke serve: ROI reconstructions ok, second hit the plan cache")

	var health struct {
		Status string `json:"status"`
		Plans  int    `json:"plans_cached"`
		Clouds int    `json:"clouds_cached"`
	}
	if err := call(ctx, p.Base+"/healthz", nil, &health); err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	if health.Status != "ok" || health.Plans != 1 || health.Clouds != 1 {
		return fmt.Errorf("unexpected health %+v, want ok with 1 plan and 1 cloud", health)
	}
	return p.stop(10 * time.Second)
}
