package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at about 1/50 of its
// benchmark length, with a 2-epoch model, traced, against a freshly
// built server binary: every declared metric must be present and
// finite, and no op may fail.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server and runs every workload")
	}
	if pids, err := runningServers(); err != nil || len(pids) > 0 {
		t.Skipf("fillvoid processes %v are running (err %v)", pids, err)
	}
	bin := filepath.Join(t.TempDir(), "fillvoid")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fillvoid")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	sc := scale{window: 300 * time.Millisecond, setups: 1, warmOps: 1, epochs: 2, layerReps: 1}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			e := &env{sc: sc, seed: 1, serverBin: bin, tr: newTracer()}
			res, err := runWorkload(ctx, w, e, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			// runWorkload already refused a missing or non-finite
			// declared metric; check the counts it reports.
			if len(res.EndToEnd) != len(endToEndMetrics) || len(res.PerLayer) != len(perLayerMetrics) {
				t.Errorf("%d end-to-end and %d per-layer metrics", len(res.EndToEnd), len(res.PerLayer))
			}
			if !res.Correct || res.Failed != 0 || res.Extra["err_frac"] != 0 {
				t.Errorf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if trace := filepath.Join(t.TempDir(), "t.json"); e.tr.writeChrome(trace) != nil {
				t.Error("writing the Chrome trace failed")
			} else if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
				t.Errorf("empty Chrome trace: %v", err)
			}
		})
	}
}
