package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"fillvoid/internal/trace"
)

// Server exposes a registry over HTTP for live inspection:
//
//	/metrics        JSON snapshot of the registry
//	/debug/vars     expvar (includes the fillvoid.telemetry var)
//	/debug/pprof/   the full net/http/pprof index (profile, heap, ...)
//	/debug/traces   the default tracer's kept traces
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
// /debug/pprof/ index and /debug/traces for the process default tracer
// — publishing the expvar exactly once per process no matter how many
// servers register.
func RegisterDebug(mux *http.ServeMux) {
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
	mux.Handle("/debug/traces", trace.Handler(nil))
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
	RegisterDebug(mux)
	s := &Server{reg: reg, ln: ln, srv: &http.Server{Handler: mux}}
	//lint:allow rawgoroutine: telemetry cannot import parallel (cycle); the acceptor exits when Close closes ln
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
