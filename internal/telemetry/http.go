package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Server exposes a registry over HTTP for live inspection:
//
//	/metrics        JSON snapshot of the registry
//	/debug/vars     expvar (includes the fillvoid.telemetry var)
//	/debug/pprof/   the full net/http/pprof index (profile, heap, ...)
//	/debug/traces   the registry's kept traces
//
// Construct with Serve; Close releases the listener.
type Server struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server
}

// publishOnce guards the process-global expvar registration (expvar
// panics on duplicate Publish).
var publishOnce sync.Once

// MetricsHandler returns an http.Handler serving reg's JSON snapshot —
// the /metrics payload. Embedders (the reconstruction server, custom
// admin muxes) mount it wherever they like; Serve uses it for its own
// /metrics route. A nil reg serves the process-global default registry.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r := reg
		if r == nil {
			r = Default()
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:allow errdrop: best-effort metrics response; there is no recovery for a failed client write
		r.Snapshot().WriteJSON(w)
	})
}

// RegisterDebug mounts the standard debug endpoints on mux —
// /debug/vars (expvar, including the fillvoid.telemetry var), the full
// /debug/pprof/ index and /debug/traces for reg's kept traces —
// publishing the expvar exactly once per process no matter how many
// servers register.
func RegisterDebug(mux *http.ServeMux, reg *Registry) {
	publishOnce.Do(func() {
		expvar.Publish("fillvoid.telemetry", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", tracesHandler(reg))
}

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

// tracesHandler serves r's completed-trace ring:
//
//	GET /debug/traces                 JSON index, newest first
//	GET /debug/traces?id=<trace-id>   that trace as Chrome trace-event JSON
//	GET /debug/traces?format=chrome   every kept trace as one trace-event file
//
// The chrome forms load directly in Perfetto or chrome://tracing.
func tracesHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if idStr := q.Get("id"); idStr != "" {
			id, err := parseTraceID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			td := r.TraceByID(id)
			if td == nil {
				http.Error(w, "telemetry: no kept trace with id "+idStr, http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			//lint:allow errdrop: client disconnects while streaming a response are unreportable
			writeChrome(w, []*TraceData{td})
			return
		}
		if q.Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			//lint:allow errdrop: client disconnects while streaming a response are unreportable
			writeChrome(w, r.Traces())
			return
		}
		traces := r.Traces()
		idx := tracesIndex{
			Enabled: r.Enabled(),
			Started: r.tracesStarted.Load(),
			Kept:    r.tracesKept.Load(),
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

// Serve starts an HTTP server on addr (use "127.0.0.1:0" for an
// ephemeral port) exposing the registry. It returns once the listener
// is bound; requests are served on a background goroutine.
func Serve(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		reg = Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	RegisterDebug(mux, reg)
	s := &Server{reg: reg, ln: ln, srv: &http.Server{Handler: mux}}
	//lint:allow rawgoroutine: telemetry cannot import parallel (cycle); the acceptor exits when Close closes ln
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
