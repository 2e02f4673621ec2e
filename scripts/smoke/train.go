package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"
)

// trainReq is the shared fixed-seed job spec. Epochs is high enough
// that the interrupted run reliably catches the job mid-flight; the
// tiny network keeps each epoch fast so the whole scenario stays in
// seconds.
var trainReq = map[string]any{
	"field":            "pressure",
	"grid":             grid16,
	"sampler":          "importance",
	"sampler_seed":     3,
	"epochs":           400,
	"hidden":           []int{24, 12},
	"train_fractions":  []float64{0.05},
	"max_train_rows":   1500,
	"batch_size":       64,
	"workers":          2,
	"seed":             5,
	"checkpoint_every": 4,
}

// trainScenario exercises the training service: a reference server
// trains a fixed-seed job to completion and records its
// content-addressed model id; a second server starts the same job in a
// fresh jobs directory and is SIGTERMed mid-training; a third server on
// that directory must resume from the last checkpoint and finish with
// the same model id, the bit-identity proof that crash recovery changes
// nothing. Finally the model serves a reconstruction by model_id.
func trainScenario(ctx context.Context, h *harness) error {
	refDir, err := os.MkdirTemp("", "smoke-train-ref-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(refDir)
	jobsDir, err := os.MkdirTemp("", "smoke-train-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jobsDir)
	defer h.cleanup() // stop the servers before their jobs dirs go
	boot := func(name, dir string) (*child, error) {
		return h.start(ctx, name, "-jobs-dir", dir, "-train-checkpoint-every", "4")
	}
	lattice := latticeCloud()

	// Reference: train the job to completion uninterrupted.
	ref, err := boot("reference server", refDir)
	if err != nil {
		return err
	}
	cloudID, err := upload(ctx, ref.Base, lattice)
	if err != nil {
		return err
	}
	fmt.Printf("smoke train: uploaded cloud %s\n", cloudID)
	jobID, err := submit(ctx, ref.Base, cloudID)
	if err != nil {
		return err
	}
	want, err := waitJob(ctx, ref.Base, jobID, 120*time.Second, isDone)
	if err != nil {
		return fmt.Errorf("reference job: %w", err)
	}
	if want.ModelID == "" {
		return fmt.Errorf("reference job finished without a model id: %+v", want)
	}
	fmt.Printf("smoke train: reference job done, model %s\n", want.ModelID)
	if err := ref.stop(30 * time.Second); err != nil {
		return err
	}

	// Interrupted run: same spec in a fresh jobs dir, SIGTERM mid-job.
	s2, err := boot("interrupted server", jobsDir)
	if err != nil {
		return err
	}
	if id, err := upload(ctx, s2.Base, lattice); err != nil {
		return err
	} else if id != cloudID {
		return fmt.Errorf("cloud id drifted across servers: %s vs %s", id, cloudID)
	}
	if id, err := submit(ctx, s2.Base, cloudID); err != nil {
		return err
	} else if id != jobID {
		return fmt.Errorf("job id drifted for identical spec: %s vs %s", id, jobID)
	}
	// Wait until at least two checkpoints exist, then pull the plug.
	if _, err := waitJob(ctx, s2.Base, jobID, 60*time.Second, reachedEpoch(8)); err != nil {
		return fmt.Errorf("waiting for mid-job progress: %w", err)
	}
	fmt.Println("smoke train: job mid-flight, sending SIGTERM")
	if err := s2.stop(30 * time.Second); err != nil {
		return err
	}

	// Restart on the same jobs dir: the job must resume and finish with
	// the reference model id.
	s3, err := boot("restarted server", jobsDir)
	if err != nil {
		return err
	}
	resumed, err := waitJob(ctx, s3.Base, jobID, 120*time.Second, isDone)
	if err != nil {
		return fmt.Errorf("resumed job: %w", err)
	}
	if resumed.Resumes < 1 {
		return fmt.Errorf("job finished without resuming (resumes=%d)", resumed.Resumes)
	}
	if resumed.ModelID != want.ModelID {
		return fmt.Errorf("resumed model %s != reference %s (resume broke bit-identity)",
			resumed.ModelID, want.ModelID)
	}
	fmt.Printf("smoke train: resumed after %d restart(s), model bit-identical\n", resumed.Resumes)

	// The trained model serves reconstructions by model_id. The cloud
	// store is an in-memory LRU, so the restarted server needs the
	// query cloud re-uploaded first.
	if _, err := upload(ctx, s3.Base, lattice); err != nil {
		return err
	}
	var r reconstruction
	req := map[string]any{"cloud_id": cloudID, "model_id": resumed.ModelID, "grid": grid16, "region": roiBox}
	if err := call(ctx, s3.Base+"/v1/reconstruct", req, &r); err != nil {
		return fmt.Errorf("reconstruct by model_id: %w", err)
	}
	if r.Method != "fcnn" || r.ModelID != resumed.ModelID {
		return fmt.Errorf("reconstruct answered method=%q model=%q, want fcnn/%s", r.Method, r.ModelID, resumed.ModelID)
	}
	if len(r.Values) != roiLen {
		return fmt.Errorf("reconstruct returned %d values, want %d", len(r.Values), roiLen)
	}
	for i, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("reconstruct value %d is %v", i, v)
		}
	}
	fmt.Println("smoke train: reconstruct by model_id ok")
	return s3.stop(30 * time.Second)
}

// latticeCloud samples a synthetic pressure field at every node of
// grid16: the training service requires one value per grid node.
func latticeCloud() *cloud {
	c := &cloud{Name: "pressure"}
	for k := 0; k < 8; k++ {
		for j := 0; j < 16; j++ {
			for i := 0; i < 16; i++ {
				x, y, z := float64(i)/15, float64(j)/15, float64(k)/7
				c.Points = append(c.Points, [3]float64{x, y, z})
				c.Values = append(c.Values, math.Sin(3*x)*math.Cos(2*y)+z*z)
			}
		}
	}
	return c
}

// submit posts trainReq for cloudID and returns the job id. A first
// submission answers 202; an idempotent re-POST of a known spec
// answers 200.
func submit(ctx context.Context, base, cloudID string) (string, error) {
	req := map[string]any{"cloud_id": cloudID}
	for k, v := range trainReq {
		req[k] = v
	}
	var resp struct {
		JobID string `json:"job_id"`
	}
	if err := call(ctx, base+"/v1/train", req, &resp, http.StatusAccepted, http.StatusOK); err != nil {
		return "", fmt.Errorf("submitting job: %w", err)
	}
	if resp.JobID == "" {
		return "", fmt.Errorf("train response carried no job id: %+v", resp)
	}
	return resp.JobID, nil
}

type jobStatus struct {
	State   string `json:"state"`
	Epoch   int    `json:"epoch"`
	ModelID string `json:"model_id"`
	Error   string `json:"error"`
	Resumes int    `json:"resumes"`
}

// waitJob polls the job's status until reached reports true or an
// error, or until timeout.
func waitJob(ctx context.Context, base, id string, timeout time.Duration, reached func(jobStatus) (bool, error)) (jobStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		var st jobStatus
		if err := call(ctx, base+"/v1/jobs/"+id, nil, &st); err != nil {
			return st, fmt.Errorf("job status: %w", err)
		}
		if ok, err := reached(st); ok || err != nil {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("job still %s at epoch %d: %w", st.State, st.Epoch, ctx.Err())
		case <-tick.C:
		}
	}
}

// isDone waits for the job to finish; failing or being cancelled ends
// the wait with an error.
func isDone(st jobStatus) (bool, error) {
	switch st.State {
	case "done":
		return true, nil
	case "failed", "cancelled":
		return false, fmt.Errorf("job reached %s (%s), want done", st.State, st.Error)
	}
	return false, nil
}

// reachedEpoch waits for the running job to report epoch n; leaving
// the queued and running states first ends the wait with an error.
func reachedEpoch(n int) func(jobStatus) (bool, error) {
	return func(st jobStatus) (bool, error) {
		if st.Epoch >= n {
			return true, nil
		}
		if st.State != "queued" && st.State != "running" {
			return false, fmt.Errorf("job reached %s at epoch %d, before epoch %d", st.State, st.Epoch, n)
		}
		return false, nil
	}
}
