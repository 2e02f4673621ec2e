package core

import (
	"context"
	"runtime"
	"testing"

	"fillvoid/internal/recon"
)

// TestWarmBoxQueryReusesScratch pins scratchPool and the neighbour
// pass's pooled tile buffers: once warm, an 8×8×4 box query on the repo
// benchmark's network shape allocates under 8 KiB per call (about 1 KiB
// in 18 allocations), not its ~1.3 MB fused scratch or the pass's
// 26 KB of tile positions and lists, whichever Ps its workers run on
// and whatever shapes earlier tests left in the pool.
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
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("warm box query: %d B in %d allocations per call", perCall, (after.Mallocs-before.Mallocs)/calls)
	if perCall >= 8<<10 {
		t.Fatalf("warm box query allocates %d B per call, want < 8 KiB", perCall)
	}
}
