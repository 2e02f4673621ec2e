package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/recon"
)

// Progressive reconstruction streams a box query as newline-delimited
// JSON: a header, a strided coarse preview (so a viewer can render
// within milliseconds), then the full-resolution values in slab chunks,
// then a done marker. Concatenating the chunk values in order yields
// exactly the bytes a non-progressive response would carry — each slab
// is an ordinary ROI query and the engine guarantees ROI output equals
// the full-grid values at those nodes.

// progressiveHeader opens the stream: everything a client needs to
// allocate the output volume and interpret the lines that follow.
type progressiveHeader struct {
	Type    string     `json:"type"` // "header"
	Method  string     `json:"method"`
	CloudID string     `json:"cloud_id"`
	ModelID string     `json:"model_id,omitempty"`
	Dims    [3]int     `json:"dims"`
	Origin  [3]float64 `json:"origin"`
	Spacing [3]float64 `json:"spacing"`
	Chunks  int        `json:"chunks"`
	Stride  int        `json:"stride"` // 0 = no coarse preview line
}

// progressiveCoarse is the preview: values at every stride-th node of
// the region box, x-fastest over the strided lattice.
type progressiveCoarse struct {
	Type   string    `json:"type"` // "coarse"
	Dims   [3]int    `json:"dims"`
	Stride int       `json:"stride"`
	Values []float64 `json:"values"`
}

// progressiveChunk is one full-resolution slab. Box holds absolute grid
// index bounds [i0,j0,k0,i1,j1,k1) and Values its nodes x-fastest.
type progressiveChunk struct {
	Type   string    `json:"type"` // "chunk"
	Seq    int       `json:"seq"`
	Box    [6]int    `json:"box"`
	Values []float64 `json:"values"`
}

type progressiveDone struct {
	Type       string  `json:"type"` // "done"
	Chunks     int     `json:"chunks"`
	Points     int     `json:"points"`
	DurationMS float64 `json:"duration_ms"`
}

// progressiveError terminates the stream early: the HTTP status is
// already committed as 200 by then, so mid-stream failures travel
// in-band.
type progressiveError struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// maxCoarsePoints bounds the preview so its latency stays negligible
// next to the first real chunk.
const maxCoarsePoints = 4096

// maxProgressiveChunks bounds the per-line overhead a client can
// request.
const maxProgressiveChunks = 64

// progressiveReconstruct streams region over w. The caller has already
// admitted the request (one execution slot is held for the whole
// stream) and validated that region is a box.
func (s *Server) progressiveReconstruct(ctx context.Context, w http.ResponseWriter, m recon.Reconstructor, method string, plan *recon.Plan, spec recon.GridSpec, region recon.Region, hash recon.CloudHash, req *ReconstructRequest) {
	start := time.Now()
	chunks := s.cfg.ProgressiveChunks
	if req.ProgressiveChunks > 0 {
		chunks = int(min(req.ProgressiveChunks, maxProgressiveChunks))
	}
	slabs := region.Split(chunks)

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			s.tel.Counter("server.response_encode_errors").Inc()
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	nx, ny, nz := region.Dims()
	origin := region.Origin(spec)
	stride := coarseStride(nx, ny, nz)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if !emit(&progressiveHeader{
		Type: "header", Method: method, CloudID: hash.String(), ModelID: req.ModelID,
		Dims:    [3]int{nx, ny, nz},
		Origin:  [3]float64{origin.X, origin.Y, origin.Z},
		Spacing: [3]float64{spec.Spacing.X, spec.Spacing.Y, spec.Spacing.Z},
		Chunks:  len(slabs), Stride: stride,
	}) {
		return
	}

	if stride > 0 {
		pts, cdims := coarsePoints(spec, region, stride)
		vals, err := recon.ReconstructPoints(ctx, m, plan, pts)
		if err != nil {
			s.streamFail(ctx, emit, err)
			return
		}
		if !emit(&progressiveCoarse{Type: "coarse", Dims: cdims, Stride: stride, Values: vals}) {
			return
		}
	}

	total := 0
	for seq, slab := range slabs {
		vol, err := recon.Reconstruct(ctx, m, plan, slab)
		if err != nil {
			s.streamFail(ctx, emit, err)
			return
		}
		total += len(vol.Data)
		if !emit(&progressiveChunk{
			Type: "chunk", Seq: seq,
			Box:    [6]int{slab.I0, slab.J0, slab.K0, slab.I1, slab.J1, slab.K1},
			Values: vol.Data,
		}) {
			return
		}
	}
	s.tel.Counter("server.reconstruct.points").Add(int64(total))
	emit(&progressiveDone{
		Type: "done", Chunks: len(slabs), Points: total,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// streamFail reports a mid-stream failure in-band and counts it.
func (s *Server) streamFail(ctx context.Context, emit func(any) bool, err error) {
	if ctx.Err() != nil {
		s.tel.Counter("server.admission.client_gone").Inc()
		return
	}
	s.tel.Counter("server.progressive.stream_errors").Inc()
	emit(&progressiveError{Type: "error", Error: err.Error()})
}

// coarseStride picks the smallest uniform stride that keeps the preview
// under maxCoarsePoints nodes; 0 when the region is already small
// enough that a preview would only duplicate the first chunks.
func coarseStride(nx, ny, nz int) int {
	if nx*ny*nz <= maxCoarsePoints {
		return 0
	}
	for stride := 2; ; stride++ {
		cx, cy, cz := ceilDiv(nx, stride), ceilDiv(ny, stride), ceilDiv(nz, stride)
		if cx*cy*cz <= maxCoarsePoints {
			return stride
		}
	}
}

// coarsePoints lists the world positions of every stride-th node of the
// region box (x-fastest), plus the strided lattice dims.
func coarsePoints(spec recon.GridSpec, r recon.Region, stride int) ([]mathutil.Vec3, [3]int) {
	nx, ny, nz := r.Dims()
	cx, cy, cz := ceilDiv(nx, stride), ceilDiv(ny, stride), ceilDiv(nz, stride)
	pts := make([]mathutil.Vec3, 0, cx*cy*cz)
	for k := r.K0; k < r.K1; k += stride {
		for j := r.J0; j < r.J1; j += stride {
			for i := r.I0; i < r.I1; i += stride {
				pts = append(pts, spec.Point(i, j, k))
			}
		}
	}
	return pts, [3]int{cx, cy, cz}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
