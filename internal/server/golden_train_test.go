package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/jobs"
	"fillvoid/internal/metrics"
	"fillvoid/internal/recon"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// goldenTrainOpts mirrors the repo-level golden run (golden_test.go):
// the fixed-seed fcnn configuration whose SNR is committed in
// testdata/golden_snr.json.
func goldenTrainOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Hidden = []int{32, 16}
	opts.Epochs = 150
	opts.TrainFractions = []float64{0.05}
	opts.MaxTrainRows = 4000
	opts.BatchSize = 128
	opts.Seed = 11
	opts.Workers = 2
	return opts
}

func goldenTruth() *grid.Volume {
	return datasets.Volume(datasets.NewIsabel(7), 32, 32, 10, 10)
}

// TestGoldenTrainJobBitIdentity is the end-to-end training-fidelity
// gate: a model trained through the job API (cloud upload → rebuild
// volume → queued worker → checkpointed trainer → model store) must be
// byte-identical to one trained directly via core.PretrainResumable on
// the original volume, and its reconstruction quality must match the
// committed golden fcnn SNR. Any divergence means the serving path
// changed what gets trained — exactly the silent drift this test
// exists to catch.
func TestGoldenTrainJobBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the golden model twice; skipped in -short")
	}
	truth := goldenTruth()
	opts := goldenTrainOpts()

	// Direct run: the same entry point the job worker calls.
	ckMgr, err := checkpoint.NewManager(checkpoint.Config{Dir: t.TempDir(), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := sampling.ByName("importance", 3)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.PretrainResumable(context.Background(), truth, "pressure", sampler, opts,
		core.Checkpointing{Manager: ckMgr, Every: 50})
	if err != nil {
		t.Fatal(err)
	}
	var directBytes bytes.Buffer
	if err := direct.Save(&directBytes); err != nil {
		t.Fatal(err)
	}

	// Job run: the full HTTP path.
	_, base := startServer(t, Config{JobsDir: t.TempDir()})
	cloudID := uploadCloud(t, base, fullFieldCloud(truth, "pressure"))
	code, body := postJSON(t, base+"/v1/train", &TrainRequest{
		CloudID:         cloudID,
		Field:           "pressure",
		Grid:            gridOf(truth),
		Sampler:         "importance",
		SamplerSeed:     3,
		Epochs:          150,
		Hidden:          []int64{32, 16},
		TrainFractions:  []float64{0.05},
		MaxTrainRows:    4000,
		BatchSize:       128,
		Workers:         2,
		Seed:            11,
		CheckpointEvery: 50,
	})
	if code != http.StatusAccepted {
		t.Fatalf("train: %d %s", code, body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, base, tr.JobID)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(base + "/v1/models/" + st.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	jobBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("model download: %d %v", resp.StatusCode, err)
	}

	directID, err := jobs.IDForModel(direct)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelID != directID {
		t.Fatalf("job-trained model id %s differs from the direct run's %s (training is not bit-identical)",
			st.ModelID, directID)
	}
	// The saved bytes must agree too: the model format depends only on
	// the model's values, so bytes from any process are comparable.
	if !bytes.Equal(directBytes.Bytes(), jobBytes) {
		t.Fatalf("job-trained model (%d bytes) is not byte-identical to the direct run (%d bytes)",
			len(jobBytes), directBytes.Len())
	}

	// Quality against the committed golden value: reconstruct the same
	// 5%-cloud query the repo-level golden test runs.
	model, err := core.Load(bytes.NewReader(jobBytes))
	if err != nil {
		t.Fatal(err)
	}
	qcloud, _, err := sampler.Sample(truth, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := model.Reconstruct(qcloud, recon.SpecOf(truth))
	if err != nil {
		t.Fatal(err)
	}
	snr, err := metrics.SNR(truth, vol)
	if err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("..", "..", "testdata", "golden_snr.json")
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var golden map[string]float64
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want, ok := golden["fcnn"]
	if !ok {
		t.Fatal("golden file has no fcnn entry")
	}
	// Same tolerance the repo-level golden test grants fcnn (1.0 dB).
	if math.Abs(snr-want) > 1.0 {
		t.Fatalf("job-trained model SNR %.4f dB, golden %.4f dB (tolerance 1.0)", snr, want)
	}
	t.Logf("job-trained model: %d bytes, SNR %.4f dB (golden %.4f)", len(jobBytes), snr, want)
}
