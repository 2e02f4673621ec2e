package core

import (
	"context"
	"runtime"
	"testing"

	"fillvoid/internal/recon"
)

// TestWarmBoxQueryReusesScratch pins scratchPool: once warm, an 8×8×4
// box query on the repo benchmark's network shape allocates a small
// fraction of its ~1.3 MB fused scratch per call, whichever Ps its
// workers run on and whatever shapes earlier tests left in the pool.
func TestWarmBoxQueryReusesScratch(t *testing.T) {
	r := untrainedFCNNHidden(t, 2, 0, []int{128, 64, 32, 16, 8})
	p := goldenPlan(t)
	box := recon.Box(10, 12, 3, 18, 20, 7)
	dst := make([]float64, box.Len())
	ctx := context.Background()
	query := func() {
		if err := r.ReconstructRegion(ctx, p, box, dst); err != nil {
			t.Fatal(err)
		}
	}
	query()
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 64<<10 {
		t.Fatalf("warm box query allocates %d B per call, want < 64 KiB", perCall)
	}
}
