package trace

import (
	"encoding/json"
	"net/http"
)

// traceSummary is one row of the /debug/traces index.
type traceSummary struct {
	TraceID    string `json:"trace_id"`
	Name       string `json:"name"`
	StartUnix  int64  `json:"start_unix_ns"`
	DurationNS int64  `json:"duration_ns"`
	Spans      int    `json:"spans"`
	Dropped    int    `json:"dropped_spans,omitempty"`
	KeepReason string `json:"keep_reason"`
	Error      string `json:"error,omitempty"`
	Remote     bool   `json:"remote,omitempty"`
}

// tracesIndex is the /debug/traces response envelope.
type tracesIndex struct {
	Enabled bool           `json:"enabled"`
	Started int64          `json:"started"`
	Kept    int64          `json:"kept"`
	Traces  []traceSummary `json:"traces"`
}

// Handler serves the tracer's completed-trace ring (nil: the process
// default tracer, resolved per request so enabling later still works):
//
//	GET /debug/traces                 JSON index, newest first
//	GET /debug/traces?id=<trace-id>   that trace as Chrome trace-event JSON
//	GET /debug/traces?format=chrome   every kept trace as one trace-event file
//
// The chrome forms load directly in Perfetto or chrome://tracing.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t
		if tr == nil {
			tr = Default()
		}
		q := r.URL.Query()
		if idStr := q.Get("id"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			td := tr.TraceByID(id)
			if td == nil {
				http.Error(w, "trace: no kept trace with id "+idStr, http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			//lint:allow errdrop: client disconnects while streaming a response are unreportable
			WriteChrome(w, []*TraceData{td})
			return
		}
		if q.Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			//lint:allow errdrop: client disconnects while streaming a response are unreportable
			WriteChrome(w, tr.Traces())
			return
		}
		traces := tr.Traces()
		started, kept := tr.Stats()
		idx := tracesIndex{
			Enabled: tr.Enabled(),
			Started: started,
			Kept:    kept,
			Traces:  make([]traceSummary, 0, len(traces)),
		}
		for _, td := range traces {
			idx.Traces = append(idx.Traces, traceSummary{
				TraceID:    td.TraceID.String(),
				Name:       td.Name,
				StartUnix:  td.StartUnixNS,
				DurationNS: td.DurationNS,
				Spans:      len(td.Spans),
				Dropped:    td.DroppedSpans,
				KeepReason: td.KeepReason,
				Error:      td.Error,
				Remote:     td.Remote,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		//lint:allow errdrop: client disconnects while streaming a response are unreportable
		enc.Encode(idx)
	})
}
