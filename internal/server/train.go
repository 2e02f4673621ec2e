package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"fillvoid/internal/cluster"
	"fillvoid/internal/jobs"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
)

// handleTrain accepts an async training job: validate the request,
// pin it to the replica owning its cloud (clustered serving), rebuild
// the full truth volume from the uploaded cloud, and queue the job.
// 202 with the job id when work was queued; 200 when the identical
// spec already has a job (content-addressed idempotency).
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.writeError(w, http.StatusServiceUnavailable, "training disabled (start with -jobs-dir)")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var req TrainRequest
	if !s.decodeBody(w, r, &req, "train request") {
		return
	}
	spec, err := req.toSpec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := spec.Validate(int(s.cfg.MaxGridPoints)); err != nil {
		// An oversized grid is a payload-size problem (413, like the
		// reconstruct path); everything else is a malformed request.
		if strings.Contains(err.Error(), "exceeds") {
			s.writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		} else {
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	h, err := recon.ParseCloudHash(spec.CloudID)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Jobs are pinned to the replica owning the cloud's hash: its
	// checkpoints, status, and resulting model then live exactly where
	// reconstruction queries for that cloud already route.
	if s.cluster != nil && !cluster.IsInternal(r) {
		if owner, self := s.cluster.Owner(uint64(h)); !self {
			s.proxyTrain(ctx, w, owner, &req, h)
			return
		}
	}

	c, ok := s.clouds.get(h)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			"cloud %s not in store (re-upload via /v1/clouds)", spec.CloudID)
		return
	}
	truth, err := jobs.VolumeFromCloud(c, spec.Grid)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var base []byte
	if spec.BaseModel != "" {
		if base, err = s.models.Bytes(spec.BaseModel); err != nil {
			if errors.Is(err, jobs.ErrModelNotFound) {
				s.writeError(w, http.StatusNotFound, "base model %s not in store", spec.BaseModel)
			} else {
				s.writeError(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
	}

	st, created, err := s.jobs.Submit(spec, truth, base)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	s.writeJSON(w, code, &TrainResponse{
		JobID:       st.ID,
		State:       string(st.State),
		Created:     created,
		EpochsTotal: st.EpochsTotal,
		ModelID:     st.ModelID,
		Replica:     s.replicaID(),
	})
}

// proxyTrain forwards a training request to the replica owning its
// cloud, pushing the cloud over once if the owner does not hold it.
func (s *Server) proxyTrain(ctx context.Context, w http.ResponseWriter, owner cluster.Member, req *TrainRequest, h recon.CloudHash) {
	body, err := json.Marshal(req)
	if err != nil {
		s.writeError(w, http.StatusBadGateway, "encoding train proxy request: %v", err)
		return
	}
	status, respBody, err := s.cluster.ProxyRequest(ctx, owner, http.MethodPost, "/v1/train", body)
	if err != nil {
		s.writeError(w, http.StatusBadGateway, "train proxy to replica %s: %v", owner.ID, err)
		return
	}
	if status == http.StatusNotFound && strings.Contains(string(respBody), "not in store") {
		if c, ok := s.clouds.get(h); ok {
			// The owner missed the upload broadcast; replicate the cloud
			// (content-addressed, so the repeat is idempotent) and retry.
			if cb, err := json.Marshal(cloudToJSON(c)); err == nil {
				s.cluster.ReplicateCloud(ctx, cb)
			}
			status, respBody, err = s.cluster.ProxyRequest(ctx, owner, http.MethodPost, "/v1/train", body)
			if err != nil {
				s.writeError(w, http.StatusBadGateway, "train proxy to replica %s: %v", owner.ID, err)
				return
			}
		}
	}
	s.relay(w, owner, status, respBody)
}

// cloudToJSON converts a stored cloud back to its wire form for
// replication pushes.
func cloudToJSON(c *pointcloud.Cloud) *CloudJSON {
	cj := &CloudJSON{
		Name:   c.Name,
		Points: make([][3]float64, len(c.Points)),
		Values: append([]float64(nil), c.Values...),
	}
	for i, p := range c.Points {
		cj.Points[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return cj
}

// relay writes a peer's response through verbatim, stamping which
// replica answered.
func (s *Server) relay(w http.ResponseWriter, owner cluster.Member, status int, body []byte) {
	if sw, ok := w.(*statusWriter); ok && status >= 400 {
		sw.errMsg = fmt.Sprintf("relayed error from replica %s", owner.ID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cluster.HeaderReplica, owner.ID)
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.tel.Counter("server.response_encode_errors").Inc()
	}
}

// handleJobGet serves GET /v1/jobs/{id}. An id unknown locally is asked
// of the peers (the job lives on the replica owning its cloud, which a
// client holding only a job id cannot compute).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.writeError(w, http.StatusServiceUnavailable, "training disabled (start with -jobs-dir)")
		return
	}
	id := r.PathValue("id")
	st, err := s.jobs.Get(id)
	if err != nil {
		if s.relayJobFromPeers(w, r, id, http.MethodGet) {
			return
		}
		s.writeError(w, http.StatusNotFound, "job %s not found", id)
		return
	}
	s.writeJSON(w, http.StatusOK, jobStatusJSON(st, s.replicaID()))
}

// handleJobCancel serves DELETE /v1/jobs/{id}: stop the job at its next
// epoch boundary (running) or immediately (queued). Cancelling a
// finished job is a conflict, not a success — its outcome already
// exists.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		s.writeError(w, http.StatusServiceUnavailable, "training disabled (start with -jobs-dir)")
		return
	}
	id := r.PathValue("id")
	st, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		if s.relayJobFromPeers(w, r, id, http.MethodDelete) {
			return
		}
		s.writeError(w, http.StatusNotFound, "job %s not found", id)
	case errors.Is(err, jobs.ErrJobFinished):
		s.writeError(w, http.StatusConflict, "job %s already finished (state %s)", id, st.State)
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		s.writeJSON(w, http.StatusOK, jobStatusJSON(st, s.replicaID()))
	}
}

// relayJobFromPeers forwards a job status/cancel for an id this replica
// does not own, relaying the first peer answer that is not a 404.
func (s *Server) relayJobFromPeers(w http.ResponseWriter, r *http.Request, id, method string) bool {
	if s.cluster == nil || cluster.IsInternal(r) || !jobs.ValidID(id) {
		return false
	}
	status, body, found := s.cluster.QueryPeers(r.Context(), method, "/v1/jobs/"+id)
	if !found {
		return false
	}
	s.relay(w, cluster.Member{ID: "peer"}, status, body)
	return true
}

// jobStatusJSON shapes one job status for the wire.
func jobStatusJSON(st jobs.Status, replica string) *JobStatusResponse {
	return &JobStatusResponse{
		JobID:       st.ID,
		State:       string(st.State),
		Epoch:       st.Epoch,
		EpochsTotal: st.EpochsTotal,
		Loss:        st.Loss,
		CloudID:     st.Spec.CloudID,
		ModelID:     st.ModelID,
		Error:       st.Error,
		Resumes:     st.Resumes,
		Replica:     replica,
	}
}

// handleModelGet serves GET /v1/models/{id}: the model's bytes in the
// model format (application/octet-stream), pulled from a peer and
// cached on a local miss. The bytes hash to id, round-trip through POST
// /v1/reconstruct's model_id on any replica, and load offline via
// core.Load.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, err := s.models.Bytes(id)
	if errors.Is(err, jobs.ErrModelNotFound) && s.pullModel(r.Context(), id, r) {
		b, err = s.models.Bytes(id)
	}
	if err != nil {
		if errors.Is(err, jobs.ErrModelNotFound) {
			s.writeError(w, http.StatusNotFound, "model %s not in store (train via /v1/train)", id)
		} else {
			s.writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Fillvoid-Model-ID", id)
	if _, err := w.Write(b); err != nil {
		s.tel.Counter("server.response_encode_errors").Inc()
	}
}
