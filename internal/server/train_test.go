package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fillvoid/internal/cluster"
	"fillvoid/internal/core"
	"fillvoid/internal/datasets"
	"fillvoid/internal/grid"
	"fillvoid/internal/jobs"
	"fillvoid/internal/sampling"
	"fillvoid/internal/telemetry"
)

// trainTruth is the fixed training fixture for the server-level job
// tests: a small Isabel-analog frame.
func trainTruth() *grid.Volume {
	return datasets.Volume(datasets.NewIsabel(3), 16, 16, 8, 4)
}

// fullFieldCloud converts a volume to the wire cloud the training API
// requires: one point per grid node, values bit-exact.
func fullFieldCloud(v *grid.Volume, name string) *CloudJSON {
	cj := &CloudJSON{Name: name}
	for k := 0; k < v.NZ; k++ {
		for j := 0; j < v.NY; j++ {
			for i := 0; i < v.NX; i++ {
				p := v.Point(i, j, k)
				cj.Points = append(cj.Points, [3]float64{p.X, p.Y, p.Z})
				cj.Values = append(cj.Values, v.Data[v.Index(i, j, k)])
			}
		}
	}
	return cj
}

func gridOf(v *grid.Volume) GridJSON {
	origin := [3]float64{v.Origin.X, v.Origin.Y, v.Origin.Z}
	spacing := [3]float64{v.Spacing.X, v.Spacing.Y, v.Spacing.Z}
	return GridJSON{Dims: [3]int{v.NX, v.NY, v.NZ}, Origin: &origin, Spacing: &spacing}
}

// fastTrainRequest fills a TrainRequest that trains in well under a
// second. Workers pinned for deterministic weights.
func fastTrainRequest(cloudID string, v *grid.Volume) *TrainRequest {
	return &TrainRequest{
		CloudID:         cloudID,
		Field:           "pressure",
		Grid:            gridOf(v),
		Sampler:         "importance",
		SamplerSeed:     3,
		Epochs:          12,
		Hidden:          []int64{24, 12},
		TrainFractions:  []float64{0.03},
		MaxTrainRows:    1500,
		BatchSize:       64,
		Workers:         2,
		Seed:            5,
		CheckpointEvery: 4,
	}
}

func uploadCloud(t *testing.T, base string, cj *CloudJSON) string {
	t.Helper()
	code, body := postJSON(t, base+"/v1/clouds", cj)
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	var up UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	return up.CloudID
}

// waitJob polls GET /v1/jobs/{id} until the state is terminal.
func waitJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatusResponse
		code := getJSON(t, base+"/v1/jobs/"+id, &st)
		if code != http.StatusOK {
			t.Fatalf("job status: %d", code)
		}
		switch jobs.State(st.State) {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCancelled, jobs.StateInterrupted:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatusResponse{}
}

func httpDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTrainJobLifecycle walks the whole training service end to end:
// upload the full field as a cloud, start an async job, watch it to
// completion, download the model artifact, and reconstruct with
// model_id.
func TestTrainJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	truth := trainTruth()
	_, base := startServer(t, Config{JobsDir: t.TempDir()})
	cloudID := uploadCloud(t, base, fullFieldCloud(truth, "pressure"))

	code, body := postJSON(t, base+"/v1/train", fastTrainRequest(cloudID, truth))
	if code != http.StatusAccepted {
		t.Fatalf("train: %d %s", code, body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Created || tr.JobID == "" || tr.EpochsTotal != 12 {
		t.Fatalf("train response: %+v", tr)
	}

	st := waitJob(t, base, tr.JobID)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("job state %s (error %q), want done", st.State, st.Error)
	}
	if st.ModelID == "" || st.Epoch != 12 || st.CloudID != cloudID {
		t.Fatalf("job status: %+v", st)
	}

	// Re-POST of the identical spec: 200, same job, no new work.
	code, body = postJSON(t, base+"/v1/train", fastTrainRequest(cloudID, truth))
	if code != http.StatusOK {
		t.Fatalf("idempotent re-train: %d %s", code, body)
	}
	var again TrainResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Created || again.JobID != tr.JobID || again.ModelID != st.ModelID {
		t.Fatalf("idempotent re-train response: %+v", again)
	}

	// The model artifact downloads and decodes.
	resp, err := http.Get(base + "/v1/models/" + st.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("model download: %d %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("model content type %q", ct)
	}
	downloaded, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("downloaded model does not decode: %v", err)
	}
	if got, err := jobs.IDForModel(downloaded); err != nil || got != st.ModelID {
		t.Fatalf("downloaded model does not hash to the model id: %s vs %s (%v)", got, st.ModelID, err)
	}

	// Reconstruction with the stored model.
	code, body = postJSON(t, base+"/v1/reconstruct", &ReconstructRequest{
		ModelID: st.ModelID,
		CloudID: cloudID,
		Grid:    gridOf(truth),
	})
	if code != http.StatusOK {
		t.Fatalf("reconstruct with model_id: %d %s", code, body)
	}
	var rec ReconstructResponse
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Method != "fcnn" || rec.ModelID != st.ModelID {
		t.Fatalf("reconstruct response: method %q model %q", rec.Method, rec.ModelID)
	}
	if len(rec.Values) != truth.NX*truth.NY*truth.NZ {
		t.Fatalf("got %d values, want %d", len(rec.Values), truth.NX*truth.NY*truth.NZ)
	}
	for i, v := range rec.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("value %d is %v", i, v)
		}
	}

	// Cancelling the finished job is a conflict.
	code, body = httpDelete(t, base+"/v1/jobs/"+tr.JobID)
	if code != http.StatusConflict {
		t.Fatalf("cancel finished job: %d %s", code, body)
	}

	// Health reflects the training service.
	var h HealthResponse
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if !h.Training || h.Models < 1 {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestFineTuneJob trains a base model through the job API, then
// fine-tunes it onto a later timestep via base_model.
func TestFineTuneJob(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	truth := trainTruth()
	_, base := startServer(t, Config{JobsDir: t.TempDir()})
	cloudID := uploadCloud(t, base, fullFieldCloud(truth, "pressure"))

	code, body := postJSON(t, base+"/v1/train", fastTrainRequest(cloudID, truth))
	if code != http.StatusAccepted {
		t.Fatalf("pretrain: %d %s", code, body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	pre := waitJob(t, base, tr.JobID)
	if pre.State != string(jobs.StateDone) {
		t.Fatalf("pretrain job: %s (%s)", pre.State, pre.Error)
	}

	// Fine-tune on the next frame of the same analog.
	next := datasets.Volume(datasets.NewIsabel(3), 16, 16, 8, 5)
	nextID := uploadCloud(t, base, fullFieldCloud(next, "pressure"))
	ftReq := fastTrainRequest(nextID, next)
	ftReq.BaseModel = pre.ModelID
	ftReq.FineTuneMode = "all"
	ftReq.FineTuneEpochs = 4
	code, body = postJSON(t, base+"/v1/train", ftReq)
	if code != http.StatusAccepted {
		t.Fatalf("finetune: %d %s", code, body)
	}
	var ft TrainResponse
	if err := json.Unmarshal(body, &ft); err != nil {
		t.Fatal(err)
	}
	if ft.JobID == tr.JobID {
		t.Fatal("fine-tune job shares the pretrain job id")
	}
	st := waitJob(t, base, ft.JobID)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("finetune job: %s (%s)", st.State, st.Error)
	}
	if st.ModelID == pre.ModelID {
		t.Fatal("fine-tuning produced the identical model")
	}
}

// TestTrainErrorPaths is the table of contract errors for the training
// endpoints.
func TestTrainErrorPaths(t *testing.T) {
	truth := trainTruth()
	// Workers: -1 → no training workers; jobs queue but never run, so
	// every case is fast and deterministic.
	_, base := startServer(t, Config{JobsDir: t.TempDir(), TrainWorkers: -1, TrainQueue: 1})
	cloudID := uploadCloud(t, base, fullFieldCloud(truth, "pressure"))

	// Occupy the single queue slot.
	code, body := postJSON(t, base+"/v1/train", fastTrainRequest(cloudID, truth))
	if code != http.StatusAccepted {
		t.Fatalf("seed job: %d %s", code, body)
	}
	var seeded TrainResponse
	if err := json.Unmarshal(body, &seeded); err != nil {
		t.Fatal(err)
	}

	partial := fullFieldCloud(truth, "pressure")
	partial.Points = partial.Points[:100]
	partial.Values = partial.Values[:100]
	partialID := uploadCloud(t, base, partial)

	overflowReq := fastTrainRequest(cloudID, truth)
	overflowReq.Grid = GridJSON{Dims: [3]int{1 << 20, 1 << 20, 1 << 20}}

	queueFullReq := fastTrainRequest(cloudID, truth)
	queueFullReq.SamplerSeed = 999 // distinct spec → distinct job

	partialReq := fastTrainRequest(partialID, truth)

	badEpochs := fastTrainRequest(cloudID, truth)
	badEpochs.Epochs = -1

	badMode := fastTrainRequest(cloudID, truth)
	badMode.FineTuneMode = "psychic"

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"train unknown cloud", "POST", "/v1/train", fastTrainRequest("00000000deadbeef", truth), http.StatusNotFound},
		{"train malformed body", "POST", "/v1/train", json.RawMessage(`{"cloud_id":`), http.StatusBadRequest},
		{"train oversized grid", "POST", "/v1/train", overflowReq, http.StatusRequestEntityTooLarge},
		{"train bad epochs", "POST", "/v1/train", badEpochs, http.StatusBadRequest},
		{"train bad fine-tune mode", "POST", "/v1/train", badMode, http.StatusBadRequest},
		{"train base model missing", "POST", "/v1/train", func() any {
			r := fastTrainRequest(cloudID, truth)
			r.SamplerSeed = 40
			r.BaseModel = "00000000deadbeef"
			return r
		}(), http.StatusNotFound},
		{"train partial cloud", "POST", "/v1/train", partialReq, http.StatusBadRequest},
		{"train queue full", "POST", "/v1/train", queueFullReq, http.StatusTooManyRequests},
		{"job status unknown", "GET", "/v1/jobs/ffffffffffffffff", nil, http.StatusNotFound},
		{"job cancel unknown", "DELETE", "/v1/jobs/ffffffffffffffff", nil, http.StatusNotFound},
		{"reconstruct unknown model", "POST", "/v1/reconstruct", &ReconstructRequest{
			ModelID: "ffffffffffffffff", CloudID: cloudID, Grid: gridOf(truth),
		}, http.StatusNotFound},
		{"reconstruct model with non-fcnn method", "POST", "/v1/reconstruct", &ReconstructRequest{
			ModelID: "ffffffffffffffff", Method: "linear", CloudID: cloudID, Grid: gridOf(truth),
		}, http.StatusBadRequest},
		{"progressive point region", "POST", "/v1/reconstruct", &ReconstructRequest{
			Method: "nearest", CloudID: cloudID, Grid: gridOf(truth), Progressive: true,
			Region: RegionJSON{Points: [][3]float64{{0, 0, 0}}},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var body []byte
			switch tc.method {
			case "POST":
				if raw, ok := tc.body.(json.RawMessage); ok {
					resp, err := http.Post(base+tc.path, "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					body, _ = io.ReadAll(resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
					break
				}
				code, body = postJSON(t, base+tc.path, tc.body)
			case "GET":
				resp, err := http.Get(base + tc.path)
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
				code = resp.StatusCode
			case "DELETE":
				code, body = httpDelete(t, base+tc.path)
			}
			if code != tc.want {
				t.Fatalf("status %d, want %d (%s)", code, tc.want, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("status %d without JSON error envelope: %s", code, body)
			}
		})
	}

	// Cancel the queued seed job (200), then cancelling again is 409.
	code, body = httpDelete(t, base+"/v1/jobs/"+seeded.JobID)
	if code != http.StatusOK {
		t.Fatalf("cancel queued: %d %s", code, body)
	}
	var cancelled JobStatusResponse
	if err := json.Unmarshal(body, &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != string(jobs.StateCancelled) {
		t.Fatalf("state %s after cancel", cancelled.State)
	}
	if code, body = httpDelete(t, base+"/v1/jobs/"+seeded.JobID); code != http.StatusConflict {
		t.Fatalf("double cancel: %d %s", code, body)
	}
}

// TestTrainingDisabled pins the 503 contract when the server runs
// without -jobs-dir.
func TestTrainingDisabled(t *testing.T) {
	truth := trainTruth()
	_, base := startServer(t, Config{})
	for _, tc := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/train", fastTrainRequest("00000000deadbeef", truth)},
		{"GET", "/v1/jobs/ffffffffffffffff", nil},
		{"DELETE", "/v1/jobs/ffffffffffffffff", nil},
	} {
		var code int
		var body []byte
		switch tc.method {
		case "POST":
			code, body = postJSON(t, base+tc.path, tc.body)
		case "GET":
			resp, err := http.Get(base + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		case "DELETE":
			code, body = httpDelete(t, base+tc.path)
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: %d %s, want 503", tc.method, tc.path, code, body)
		}
	}
	// The model store still serves (memory-only): unknown is 404.
	resp, err := http.Get(base + "/v1/models/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model get without jobs dir: %d, want 404", resp.StatusCode)
	}
	var h HealthResponse
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK || h.Training {
		t.Fatalf("healthz: code %d training %v, want training disabled", code, h.Training)
	}
}

// TestServerRestartResumesJob is the serving-layer half of the crash
// story: SIGTERM-equivalent shutdown mid-job, then a new server over
// the same directories resumes and finishes it, and the model id it
// publishes matches an uninterrupted run bit for bit.
func TestServerRestartResumesJob(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	truth := trainTruth()
	req := func(cloudID string) *TrainRequest {
		r := fastTrainRequest(cloudID, truth)
		r.Epochs = 40
		r.CheckpointEvery = 2
		return r
	}

	// Reference: the same job on an undisturbed server.
	_, refBase := startServer(t, Config{JobsDir: t.TempDir()})
	refCloud := uploadCloud(t, refBase, fullFieldCloud(truth, "pressure"))
	code, body := postJSON(t, refBase+"/v1/train", req(refCloud))
	if code != http.StatusAccepted {
		t.Fatalf("reference train: %d %s", code, body)
	}
	var refTr TrainResponse
	if err := json.Unmarshal(body, &refTr); err != nil {
		t.Fatal(err)
	}
	refSt := waitJob(t, refBase, refTr.JobID)
	if refSt.State != string(jobs.StateDone) {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}

	// Interrupted: shut the server down once training is under way.
	jobsDir := t.TempDir()
	s1, base1 := startServer(t, Config{JobsDir: jobsDir})
	cloudID := uploadCloud(t, base1, fullFieldCloud(truth, "pressure"))
	code, body = postJSON(t, base1+"/v1/train", req(cloudID))
	if code != http.StatusAccepted {
		t.Fatalf("train: %d %s", code, body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatusResponse
		if getJSON(t, base1+"/v1/jobs/"+tr.JobID, &st) == http.StatusOK && st.Epoch >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started training")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	err := s1.Shutdown(ctx)
	cancel()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart over the same state: the scan re-queues the job and the
	// resumed run must converge to the identical model.
	_, base2 := startServer(t, Config{JobsDir: jobsDir})
	st := waitJob(t, base2, tr.JobID)
	if st.State != string(jobs.StateDone) {
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	if st.ModelID != refSt.ModelID {
		t.Fatalf("resumed model %s != uninterrupted model %s (not bit-identical)", st.ModelID, refSt.ModelID)
	}
	if st.Resumes == 0 {
		t.Fatal("restart did not count a resume")
	}
	// And the artifact itself is reachable on the new process.
	resp, err := http.Get(base2 + "/v1/models/" + st.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model after restart: %d", resp.StatusCode)
	}
}

// TestTrainObserverProgress checks that a running job exposes live
// epoch/loss numbers (the TrainObserver plumbing end to end).
func TestTrainObserverProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	truth := trainTruth()
	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{JobsDir: t.TempDir(), Telemetry: tel})
	cloudID := uploadCloud(t, base, fullFieldCloud(truth, "pressure"))

	r := fastTrainRequest(cloudID, truth)
	r.Epochs = 60
	r.CheckpointEvery = 50
	code, body := postJSON(t, base+"/v1/train", r)
	if code != http.StatusAccepted {
		t.Fatalf("train: %d %s", code, body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	sawProgress := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatusResponse
		if getJSON(t, base+"/v1/jobs/"+tr.JobID, &st) != http.StatusOK {
			t.Fatal("job status failed")
		}
		if st.State == string(jobs.StateRunning) && st.Epoch > 0 && st.Loss > 0 {
			sawProgress = true
		}
		if jobs.State(st.State).Terminal() {
			if st.State != string(jobs.StateDone) {
				t.Fatalf("job: %s (%s)", st.State, st.Error)
			}
			if !sawProgress && st.Epoch == 0 {
				t.Fatal("no live progress was ever observed")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish")
}

// tinyModel pretrains a throwaway model in milliseconds; seeds give
// different weights.
func tinyModel(t *testing.T, seed int64) *core.FCNN {
	t.Helper()
	m, err := core.Pretrain(trainTruth(), "pressure", &sampling.Importance{Seed: 3}, core.Options{
		Hidden: []int{4}, Epochs: 1, TrainFractions: []float64{0.05}, MaxTrainRows: 200, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPeerModelPullRefusesForeignBytes points a replica at a peer that
// answers every model lookup with one model's bytes. Asked for another
// model, the replica must answer 404 on both paths that pull (GET
// /v1/models/{id} and a model_id reconstruction) and store nothing;
// asked for the model the bytes hash to, it must serve them.
func TestPeerModelPullRefusesForeignBytes(t *testing.T) {
	wanted, served := tinyModel(t, 1), tinyModel(t, 2)
	wantedID, err := jobs.IDForModel(wanted)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := served.Save(&body); err != nil {
		t.Fatal(err)
	}
	servedID, err := jobs.IDForModel(served)
	if err != nil {
		t.Fatal(err)
	}
	if wantedID == servedID {
		t.Fatal("fixture models share an id")
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body.Bytes())
	}))
	defer peer.Close()
	cl, err := cluster.New(cluster.Config{
		Self:      "a",
		Members:   []cluster.Member{{ID: "a"}, {ID: "b", URL: peer.URL}},
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, base := startServer(t, Config{Cluster: cl})

	resp, err := http.Get(base + "/v1/models/" + wantedID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET foreign model: %d, want 404", resp.StatusCode)
	}
	truth := trainTruth()
	code, msg := postJSON(t, base+"/v1/reconstruct", &ReconstructRequest{
		ModelID: wantedID,
		Cloud:   fullFieldCloud(truth, "pressure"),
		Grid:    gridOf(truth),
	})
	if code != http.StatusNotFound {
		t.Fatalf("reconstruct with a foreign model: %d %s, want 404", code, msg)
	}
	if n := srv.models.Len(); n != 0 {
		t.Fatalf("store holds %d models after refusing foreign bytes", n)
	}

	resp, err = http.Get(base + "/v1/models/" + servedID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, body.Bytes()) {
		t.Fatalf("GET the served model: %d, %d bytes (%v), want 200 and its %d bytes",
			resp.StatusCode, len(got), err, body.Len())
	}
}
