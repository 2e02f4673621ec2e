// Package server turns the reconstruction engine into an HTTP service:
// load models once, keep an LRU of query plans keyed by (cloud content
// hash, grid spec) so repeated queries against the same sampled
// timestep share the spatial index, and answer full-grid / sub-box ROI
// / point-list queries with per-request contexts so a disconnected
// client cancels engine work mid-flight.
//
// Endpoints:
//
//	POST /v1/reconstruct  run a method over a region (inline cloud or cloud_id)
//	POST /v1/clouds       upload a cloud once, get its content-hash id
//	GET  /v1/methods      list registered reconstructors
//	GET  /v1/cluster      replica membership + routing counters (404 standalone)
//	GET  /healthz         liveness + in-flight/queue/cache counts
//	GET  /metrics         telemetry JSON snapshot
//	GET  /debug/traces    kept request traces (Chrome trace-event JSON)
//	     /debug/pprof/*   net/http/pprof, /debug/vars expvar
//
// Every request is traced: the handler opens a root span,
// server/<endpoint> (continuing the caller's W3C traceparent when one
// is sent, and echoing the trace ID back in the response's traceparent
// header), and carries it in the request context, so the spans of the
// stages that context reaches — plan cache, execute, parallel workers —
// nest underneath it, and the completed tree lands in the ring of the
// server's telemetry registry. The root span is the request's one
// clock: its duration feeds /metrics (the server/<endpoint> span stats)
// and the access log. Each request also gets an X-Request-ID (stamped
// into error bodies and the access log) and one structured access-log
// line.
//
// Admission is a bounded-concurrency semaphore with a bounded wait
// queue: when every slot is busy a request waits up to QueueTimeout for
// one (503 on timeout); when the queue itself is full the request is
// rejected immediately with 429. A slot is held only around the engine
// call itself — decode, validation, plan-cache access (singleflighted)
// and cluster fan-out all run unslotted, so a coordinator waiting on
// sub-queries can never starve the very replicas serving them.
// Shutdown stops accepting connections and drains in-flight
// reconstructions before returning.
//
// With Config.Cluster set, the server is one replica of a serving
// cluster: external queries route by the consistent hash of their
// (cloud, grid) plan key — executed locally when this replica owns the
// key, proxied whole to the owner otherwise, and large box regions
// fanned out as sub-box shards across replicas and stitched
// bit-identically. Cluster-internal sub-requests (marked by
// X-Fillvoid-Internal) always execute locally, which is what terminates
// the routing recursion.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"fillvoid/internal/checkpoint"
	"fillvoid/internal/cluster"
	"fillvoid/internal/jobs"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/telemetry"
)

// Config configures the reconstruction service. The zero value of every
// field picks a sensible default.
type Config struct {
	// Registry resolves method names; required (NewRegistry / the
	// interp standard registry, plus RegisterMethod for a loaded FCNN).
	Registry *recon.Registry
	// MaxConcurrent bounds simultaneously executing reconstructions
	// (default 2×GOMAXPROCS; reconstructions are internally parallel, so
	// this is deliberately small).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are rejected immediately with 429 (default 64).
	MaxQueue int
	// QueueTimeout is how long a queued request waits for a slot before
	// a 503 (default 5s).
	QueueTimeout time.Duration
	// RequestTimeout bounds one reconstruction end to end; exceeding it
	// cancels the engine and returns 504 (default 60s).
	RequestTimeout time.Duration
	// PlanCacheSize is the plan LRU capacity in entries (default 16).
	PlanCacheSize int
	// CloudCacheSize is the uploaded-cloud LRU capacity (default 32).
	CloudCacheSize int
	// MaxBodyBytes bounds request bodies (default 1 GiB).
	MaxBodyBytes int64
	// MaxGridPoints bounds the number of output points one request may
	// ask for (region length: the full grid, a sub-box, or a point
	// list). Beyond it the request is rejected with 413 instead of
	// attempting an attacker-sized allocation (default 1<<26, i.e. a
	// 512 MiB float64 volume).
	MaxGridPoints int64
	// Telemetry receives the server's metrics and keeps its request
	// traces (default: the process global registry). New enables it,
	// so serving always collects both.
	Telemetry *telemetry.Registry
	// Cluster, when set, makes this server one replica of a multi-replica
	// serving cluster (see internal/cluster): plan keys route by
	// consistent hash, large box queries fan out as shards. Nil serves
	// standalone.
	Cluster *cluster.Cluster
	// JobsDir enables the training service (POST /v1/train): per-job
	// durable state, checkpoints, and the persisted model tier live
	// under it, and unfinished jobs found there at startup resume from
	// their last checkpoint. Empty disables the training endpoints
	// (503); the model store still serves, memory-only.
	JobsDir string
	// TrainWorkers is the training worker pool size (default 1;
	// negative: none). It is separate from MaxConcurrent on purpose —
	// training must never starve reconstruction slots.
	TrainWorkers int
	// TrainQueue bounds queued training jobs; beyond it POST /v1/train
	// returns 429 (default 16).
	TrainQueue int
	// TrainCheckpointEvery is the default epoch period between job
	// checkpoints (default 25).
	TrainCheckpointEvery int
	// TrainFS overrides the checkpoint filesystem for training jobs
	// (default OS). The fault-injection tests arm failures through it.
	TrainFS checkpoint.FS
	// ModelCacheSize bounds decoded models held in memory (default 8).
	ModelCacheSize int
	// ProgressiveChunks is the default chunk count for progressive
	// reconstruction streams (default 8).
	ProgressiveChunks int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 16
	}
	if c.CloudCacheSize <= 0 {
		c.CloudCacheSize = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.MaxGridPoints <= 0 {
		c.MaxGridPoints = 1 << 26
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.Default()
	}
	if c.ModelCacheSize <= 0 {
		c.ModelCacheSize = 8
	}
	if c.ProgressiveChunks <= 0 {
		c.ProgressiveChunks = 8
	}
	return c
}

// Server is the reconstruction HTTP service. Construct with New, bind
// with Start, stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	reg     *recon.Registry
	tel     *telemetry.Registry
	plans   *planCache
	clouds  *cloudStore
	models  *jobs.ModelStore
	jobs    *jobs.Manager
	cluster *cluster.Cluster
	mux     *http.ServeMux

	sem   chan struct{}
	queue chan struct{}

	inFlight atomic.Int64
	queued   atomic.Int64

	ln      net.Listener
	httpSrv *http.Server
	sampler *telemetry.RuntimeSampler
}

// New builds the service (no listener yet; see Start and Handler).
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("server: Config.Registry is required")
	}
	cfg = cfg.withDefaults()
	// Serving without traces is flying blind: turn the server's
	// registry on before anything it builds (caches, resumed training
	// jobs) records into it. The engine (recon, parallel, core) opens
	// its spans on the process-global registry, not the injected one,
	// and a disabled registry opens none; enable it too, or a server
	// handed its own registry would serve traces with no execute stages
	// in them.
	cfg.Telemetry.SetEnabled(true)
	telemetry.Enable()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		tel:     cfg.Telemetry,
		plans:   newPlanCache(cfg.PlanCacheSize, cfg.Telemetry),
		clouds:  newCloudStore(cfg.CloudCacheSize, cfg.Telemetry),
		cluster: cfg.Cluster,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		queue:   make(chan struct{}, cfg.MaxQueue),
	}
	// The model store always exists (reconstruct-by-model_id and model
	// replication work standalone); it only gains a durable tier when a
	// jobs directory is configured.
	modelDir := ""
	if cfg.JobsDir != "" {
		modelDir = filepath.Join(cfg.JobsDir, "models")
	}
	models, err := jobs.NewModelStore(modelDir, cfg.ModelCacheSize, cfg.Telemetry)
	if err != nil {
		return nil, err
	}
	s.models = models
	if cfg.JobsDir != "" {
		jm, err := jobs.New(jobs.Config{
			Dir:             filepath.Join(cfg.JobsDir, "jobs"),
			Workers:         cfg.TrainWorkers,
			Queue:           cfg.TrainQueue,
			CheckpointEvery: cfg.TrainCheckpointEvery,
			Models:          models,
			FS:              cfg.TrainFS,
			Telemetry:       cfg.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		s.jobs = jm
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reconstruct", s.instrument("reconstruct", s.handleReconstruct))
	mux.HandleFunc("POST /v1/clouds", s.instrument("clouds", s.handleClouds))
	mux.HandleFunc("POST /v1/train", s.instrument("train", s.handleTrain))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs", s.handleJobCancel))
	mux.HandleFunc("GET /v1/models/{id}", s.instrument("models", s.handleModelGet))
	mux.HandleFunc("GET /v1/methods", s.instrument("methods", s.handleMethods))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", telemetry.MetricsHandler(s.tel))
	telemetry.RegisterDebug(mux, s.tel)
	s.mux = mux
	return s, nil
}

// Handler returns the service's root handler (for tests and embedders
// that manage their own listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (use "127.0.0.1:0" for an ephemeral port) and serves
// in a background goroutine. It returns once the listener is bound.
func (s *Server) Start(addr string) error {
	if s.ln != nil {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	s.sampler = telemetry.StartRuntimeSampler(s.tel, time.Second)
	go s.httpSrv.Serve(ln)
	telemetry.Infof("fillvoid server listening", "addr", ln.Addr().String(),
		"max_concurrent", s.cfg.MaxConcurrent, "max_queue", s.cfg.MaxQueue)
	return nil
}

// stopSampler halts the runtime sampler once, from whichever of
// Shutdown/Close runs first.
func (s *Server) stopSampler() {
	if s.sampler != nil {
		s.sampler.Stop()
		s.sampler = nil
	}
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server. Training jobs stop first —
// each running job cancels at its next epoch boundary, writes a final
// checkpoint, and persists as interrupted so the next process resumes
// it — then the listener closes and in-flight reconstructions drain
// (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopSampler()
	if s.jobs != nil {
		if err := s.jobs.Close(ctx); err != nil {
			telemetry.Warnf("training jobs did not drain", "err", err)
		}
	}
	if s.httpSrv == nil {
		return nil
	}
	telemetry.Infof("fillvoid server draining", "in_flight", s.inFlight.Load())
	return s.httpSrv.Shutdown(ctx)
}

// Close stops the server immediately, abandoning in-flight requests.
// Running training jobs still get a short grace to checkpoint — losing
// at most an epoch of work, like the crash Close simulates.
func (s *Server) Close() error {
	s.stopSampler()
	if s.jobs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.jobs.Close(ctx); err != nil {
			telemetry.Warnf("training jobs did not stop before close", "err", err)
		}
		cancel()
	}
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// statusWriter captures the response code and body size for
// per-endpoint metrics and the access log, and carries the per-request
// identifiers that writeError and setCacheNote stamp into responses.
type statusWriter struct {
	http.ResponseWriter
	code   int
	bytes  int64
	reqID  string
	errMsg string
	cache  string
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so progressive NDJSON chunks
// reach the client as they complete instead of buffering to the end.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// setCacheNote records a cache outcome ("hit"/"miss") on the request,
// for its access-log line and trace span. No-op outside instrument.
func setCacheNote(w http.ResponseWriter, note string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.cache = note
	}
}

// instrument wraps a handler with per-request observability: a root
// span, server/<name> (continuing an incoming W3C traceparent and
// echoing the trace ID back), an X-Request-ID header stamped into
// error bodies, request/error counters, and one structured access-log
// line whose duration is the root span's.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := s.tel.StartTrace(r.Context(), "server/"+name, r.Header.Get("traceparent"))
		reqID := telemetry.NewSpanID().String()
		route := r.Method + " " + r.URL.Path
		sp.SetAttr("request_id", reqID)
		sp.SetAttr("route", route)
		w.Header().Set("X-Request-ID", reqID)
		if tp := sp.Traceparent(); tp != "" {
			w.Header().Set("traceparent", tp)
		}

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, reqID: reqID}
		h(sw, r.WithContext(ctx))

		sp.SetAttr("status", strconv.Itoa(sw.code))
		if sw.cache != "" {
			sp.SetAttr("plan_cache", sw.cache)
		}
		if sw.code >= 400 {
			msg := sw.errMsg
			if msg == "" {
				msg = http.StatusText(sw.code)
			}
			sp.SetError(msg)
		}
		d := sp.End()

		if sw.code >= 400 {
			s.tel.Counter(fmt.Sprintf("server.%s.errors.%dxx", name, sw.code/100)).Inc()
		}

		kv := []any{
			"request_id", reqID,
			"route", route,
			"status", sw.code,
			"bytes", sw.bytes,
			"duration_ms", float64(d) / float64(time.Millisecond),
		}
		if tid := sp.TraceID(); !tid.IsZero() {
			kv = append(kv, "trace_id", tid.String())
		}
		if sw.cache != "" {
			kv = append(kv, "plan_cache", sw.cache)
		}
		if sw.code >= 400 {
			kv = append(kv, "error", sw.errMsg)
			telemetry.Warnf("request", kv...)
		} else {
			telemetry.Infof("request", kv...)
		}
	}
}

// gridPoints returns spec's total point count, or -1 when the product
// overflows int64 (dims come straight off the wire).
func gridPoints(spec recon.GridSpec) int64 {
	nx, ny, nz := int64(spec.NX), int64(spec.NY), int64(spec.NZ)
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return -1
	}
	if ny > (1<<62)/nx || nz > (1<<62)/(nx*ny) {
		return -1
	}
	return nx * ny * nz
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone; all we can do is count the failure
		// so operators see response-path trouble in /metrics. Count on
		// the server's own registry — a server handed an injected
		// registry must not leak its failures into the process-global
		// one, where its operators would never look.
		s.tel.Counter("server.response_encode_errors").Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	resp := errorResponse{Error: msg}
	if sw, ok := w.(*statusWriter); ok {
		sw.errMsg = msg
		resp.RequestID = sw.reqID
	}
	s.writeJSON(w, code, resp)
}

// decodeBody decodes one JSON request body under the configured size
// cap, mapping the cap trip to 413 (the body is well-formed but too
// big — telling the client "bad request" would send them debugging
// their JSON instead of their payload size) and everything else to 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d byte limit", mbe.Limit)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return false
	}
	return true
}

// acquire implements admission: fast path straight into an execution
// slot; otherwise take a bounded queue slot and wait up to QueueTimeout.
// It returns a release func on success, or the HTTP status to reject
// with (429 queue full, 503 queue timeout, 499 client gone).
func (s *Server) acquire(ctx context.Context) (release func(), status int, err error) {
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.queue <- struct{}{}:
		default:
			s.tel.Counter("server.admission.rejected_429").Inc()
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("queue full (%d waiting, %d executing)", s.cfg.MaxQueue, s.cfg.MaxConcurrent)
		}
		s.queued.Add(1)
		timer := time.NewTimer(s.cfg.QueueTimeout)
		defer func() {
			timer.Stop()
			s.queued.Add(-1)
			<-s.queue
		}()
		select {
		case s.sem <- struct{}{}:
		case <-timer.C:
			s.tel.Counter("server.admission.rejected_503").Inc()
			return nil, http.StatusServiceUnavailable,
				fmt.Errorf("no execution slot within %s", s.cfg.QueueTimeout)
		case <-ctx.Done():
			s.tel.Counter("server.admission.client_gone").Inc()
			return nil, 499, ctx.Err()
		}
	}
	s.inFlight.Add(1)
	s.tel.Gauge("server.in_flight").Set(float64(s.inFlight.Load()))
	return func() {
		s.inFlight.Add(-1)
		s.tel.Gauge("server.in_flight").Set(float64(s.inFlight.Load()))
		<-s.sem
	}, 0, nil
}

// resolveCloud returns the request's cloud and its content hash, either
// from the inline payload (stored for reuse) or from the cloud store.
func (s *Server) resolveCloud(req *ReconstructRequest) (*pointcloud.Cloud, recon.CloudHash, int, error) {
	switch {
	case req.Cloud != nil && req.CloudID != "":
		return nil, 0, http.StatusBadRequest, errors.New("set either cloud or cloud_id, not both")
	case req.Cloud != nil:
		c, err := req.Cloud.toCloud()
		if err != nil {
			return nil, 0, http.StatusBadRequest, err
		}
		return c, s.clouds.put(c), 0, nil
	case req.CloudID != "":
		h, err := recon.ParseCloudHash(req.CloudID)
		if err != nil {
			return nil, 0, http.StatusBadRequest, err
		}
		c, ok := s.clouds.get(h)
		if !ok {
			return nil, 0, http.StatusNotFound,
				fmt.Errorf("cloud %s not in store (re-upload via /v1/clouds)", req.CloudID)
		}
		return c, h, 0, nil
	default:
		return nil, 0, http.StatusBadRequest, errors.New("request needs cloud or cloud_id")
	}
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	// Decode and validate before admission: a malformed or oversized
	// request must not occupy an execution slot (under load, a burst of
	// bad requests used to 503 well-formed ones behind them in the
	// queue), and the cluster fan-out path below must hold no slot while
	// it waits on sub-queries that may land back on this very replica.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var req ReconstructRequest
	if !s.decodeBody(w, r, &req, "request") {
		return
	}
	m, method, status, err := s.resolveMethod(ctx, &req, r)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	if req.Quant != "" {
		// Quantized inference is an opt-in per-request view of methods
		// that support it (the fcnn reconstructor); the view shares the
		// underlying model, so taking it per request is cheap.
		qm, ok := m.(interface {
			WithQuant(string) (recon.Reconstructor, error)
		})
		if !ok {
			s.writeError(w, http.StatusBadRequest, "method %q does not support quantized inference", method)
			return
		}
		if m, err = qm.WithQuant(req.Quant); err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	cloud, hash, status, err := s.resolveCloud(&req)
	if err != nil {
		s.writeError(w, status, "%v", err)
		return
	}
	spec, err := req.Grid.toSpec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Bound the grid before Region math touches it: NX*NY*NZ from the
	// wire can overflow int, and even in range it sizes the output
	// allocation, so it must not exceed the configured ceiling.
	if pts := gridPoints(spec); pts < 0 || pts > s.cfg.MaxGridPoints {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			"grid %dx%dx%d exceeds the server limit of %d points",
			spec.NX, spec.NY, spec.NZ, s.cfg.MaxGridPoints)
		return
	}
	region, err := req.Region.toRegion(spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Progressive && region.IsPoints() {
		s.writeError(w, http.StatusBadRequest, "progressive responses need a box or full-grid region, not points")
		return
	}
	key := recon.PlanKey{Cloud: hash, Spec: spec}

	// Cluster routing applies to external queries only: internal
	// sub-requests carry X-Fillvoid-Internal and always execute locally,
	// which terminates the recursion. Progressive streams and stored-
	// model queries also execute locally: a proxied stream would buffer
	// at the coordinator, and peers are not guaranteed to hold the model
	// (the model store pulls on demand instead).
	if s.cluster != nil && !cluster.IsInternal(r) && !req.Progressive && req.ModelID == "" {
		route, owner, width := s.cluster.Plan(key.Hash(), region)
		switch route {
		case cluster.RouteProxy:
			s.proxyReconstruct(ctx, w, owner, &req, cloud, hash)
			return
		case cluster.RouteFanout:
			s.fanoutReconstruct(ctx, w, &req, key, cloud, spec, region, width)
			return
		}
	}

	// The plan build runs singleflighted and unslotted: concurrent
	// first requests for one key coalesce onto a single recon.NewPlan,
	// and an expensive build never pins an execution slot.
	_, psp := s.tel.Start(ctx, "server/plan-cache")
	plan, cached, err := s.plans.getOrBuild(key, cloud, spec)
	if err != nil {
		psp.SetError(err.Error())
		psp.End()
		s.writeError(w, http.StatusBadRequest, "building plan: %v", err)
		return
	}
	cacheNote := "miss"
	if cached {
		cacheNote = "hit"
	}
	psp.SetAttr("cached", cacheNote)
	psp.End()
	setCacheNote(w, cacheNote)

	release, status, err := s.acquire(r.Context())
	if err != nil {
		if status == 499 {
			// Client already gone; nothing to write.
			return
		}
		s.writeError(w, status, "%v", err)
		return
	}
	defer release()

	if req.Progressive {
		// One admission slot covers the whole stream: chunks run
		// sequentially, so the stream costs what one reconstruction
		// costs, just delivered incrementally.
		s.progressiveReconstruct(ctx, w, m, method, plan, spec, region, hash, &req)
		return
	}

	start := time.Now()
	vol, err := recon.Reconstruct(ctx, m, plan, region)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// Client disconnected mid-reconstruction; the context
			// cancellation already stopped the engine workers.
			s.tel.Counter("server.reconstruct.cancelled").Inc()
			telemetry.Debugf("reconstruction cancelled by client", "method", req.Method)
		case errors.Is(err, context.DeadlineExceeded):
			s.tel.Counter("server.reconstruct.timeout").Inc()
			s.writeError(w, http.StatusGatewayTimeout, "reconstruction exceeded %s", s.cfg.RequestTimeout)
		default:
			s.writeError(w, http.StatusUnprocessableEntity, "reconstruction failed: %v", err)
		}
		return
	}
	s.tel.Counter("server.reconstruct.points").Add(int64(region.Len()))
	s.writeJSON(w, http.StatusOK, &ReconstructResponse{
		Method:     method,
		Dims:       [3]int{vol.NX, vol.NY, vol.NZ},
		Origin:     [3]float64{vol.Origin.X, vol.Origin.Y, vol.Origin.Z},
		Spacing:    [3]float64{vol.Spacing.X, vol.Spacing.Y, vol.Spacing.Z},
		Values:     vol.Data,
		CloudID:    hash.String(),
		PlanCached: cached,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		Quant:      req.Quant,
		Replica:    s.replicaID(),
		ModelID:    req.ModelID,
	})
}

// resolveMethod picks the reconstructor for a request: a stored model
// when model_id is set (fetched from a peer on a local miss), else the
// named registry method.
func (s *Server) resolveMethod(ctx context.Context, req *ReconstructRequest, r *http.Request) (recon.Reconstructor, string, int, error) {
	if req.ModelID == "" {
		m, err := s.reg.Get(req.Method)
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		return m, req.Method, 0, nil
	}
	if req.Method != "" && req.Method != "fcnn" {
		return nil, "", http.StatusBadRequest,
			fmt.Errorf("model_id selects a stored fcnn model; method must be empty or \"fcnn\", not %q", req.Method)
	}
	m, err := s.models.Get(req.ModelID)
	if errors.Is(err, jobs.ErrModelNotFound) && s.pullModel(ctx, req.ModelID, r) {
		m, err = s.models.Get(req.ModelID)
	}
	if err != nil {
		if errors.Is(err, jobs.ErrModelNotFound) {
			return nil, "", http.StatusNotFound,
				fmt.Errorf("model %s not in store (train via /v1/train)", req.ModelID)
		}
		return nil, "", http.StatusInternalServerError, err
	}
	return m, "fcnn", 0, nil
}

// pullModel copies model id from the first cluster peer that has it
// into the local store and reports whether it did. The store refuses
// bytes that do not hash to id, so a peer cannot file another model
// under it. Internal requests never pull, which stops peer loops.
func (s *Server) pullModel(ctx context.Context, id string, r *http.Request) bool {
	if s.cluster == nil || cluster.IsInternal(r) || !jobs.ValidID(id) {
		return false
	}
	status, body, found := s.cluster.QueryPeers(ctx, http.MethodGet, "/v1/models/"+id)
	if !found || status != http.StatusOK {
		return false
	}
	if err := s.models.PutBytes(id, body); err != nil {
		telemetry.Warnf("peer model fetch returned invalid bytes", "model", id, "err", err)
		return false
	}
	return true
}

// replicaID names this replica in clustered responses; empty (and
// omitted from the JSON) standalone.
func (s *Server) replicaID() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self().ID
}

// proxyReconstruct forwards a whole query to the replica owning its
// plan key and relays the owner's response verbatim, so only the
// owner's plan cache holds the plan. The inline cloud (if any) is
// rewritten to its cloud_id — the coordinator already stored it, and
// the owner pulls it via the replication push on a miss.
func (s *Server) proxyReconstruct(ctx context.Context, w http.ResponseWriter, owner cluster.Member, req *ReconstructRequest, cloud *pointcloud.Cloud, hash recon.CloudHash) {
	fwd := *req
	fwd.Cloud = nil
	fwd.CloudID = hash.String()
	body, err := json.Marshal(&fwd)
	if err != nil {
		s.writeError(w, http.StatusBadGateway, "encoding proxy request: %v", err)
		return
	}
	status, respBody, err := s.cluster.Proxy(ctx, owner, body, cloud)
	if err != nil {
		s.writeError(w, http.StatusBadGateway, "proxy to replica %s: %v", owner.ID, err)
		return
	}
	if sw, ok := w.(*statusWriter); ok && status >= 400 {
		sw.errMsg = fmt.Sprintf("proxied error from replica %s", owner.ID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cluster.HeaderReplica, owner.ID)
	w.WriteHeader(status)
	if _, err := w.Write(respBody); err != nil {
		s.tel.Counter("server.response_encode_errors").Inc()
	}
}

// fanoutReconstruct serves a large box query by sharding it across the
// cluster and stitching the sub-volumes; the result is bit-identical to
// a single-replica run because each shard is an ordinary ROI query and
// the engine guarantees ROI output equals the full-grid values.
func (s *Server) fanoutReconstruct(ctx context.Context, w http.ResponseWriter, req *ReconstructRequest, key recon.PlanKey, cloud *pointcloud.Cloud, spec recon.GridSpec, region recon.Region, width int) {
	start := time.Now()
	res, err := s.cluster.Fanout(ctx, &cluster.Query{
		Method:  req.Method,
		Quant:   req.Quant,
		CloudID: key.Cloud.String(),
		Cloud:   cloud,
		Spec:    spec,
		Region:  region,
		KeyHash: key.Hash(),
	}, width)
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.tel.Counter("server.reconstruct.timeout").Inc()
			s.writeError(w, http.StatusGatewayTimeout, "sharded reconstruction exceeded %s", s.cfg.RequestTimeout)
			return
		}
		s.writeError(w, http.StatusBadGateway, "sharded reconstruction: %v", err)
		return
	}
	s.tel.Counter("server.reconstruct.points").Add(int64(region.Len()))
	nx, ny, nz := region.Dims()
	origin := region.Origin(spec)
	s.writeJSON(w, http.StatusOK, &ReconstructResponse{
		Method:     req.Method,
		Dims:       [3]int{nx, ny, nz},
		Origin:     [3]float64{origin.X, origin.Y, origin.Z},
		Spacing:    [3]float64{spec.Spacing.X, spec.Spacing.Y, spec.Spacing.Z},
		Values:     res.Values,
		CloudID:    key.Cloud.String(),
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		Quant:      req.Quant,
		Replica:    s.replicaID(),
		Shards:     res.Shards,
	})
}

func (s *Server) handleClouds(w http.ResponseWriter, r *http.Request) {
	var cj CloudJSON
	if !s.decodeBody(w, r, &cj, "cloud") {
		return
	}
	c, err := cj.toCloud()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	h := s.clouds.put(c)
	// Broadcast external uploads to the peers (best effort, counted on
	// failure) so sharded sub-queries find the cloud already resident;
	// replication pushes themselves carry the internal marker and stop
	// here.
	if s.cluster != nil && !cluster.IsInternal(r) {
		if body, err := json.Marshal(&cj); err == nil {
			s.cluster.ReplicateCloud(r.Context(), body)
		}
	}
	s.writeJSON(w, http.StatusOK, &UploadResponse{CloudID: h.String(), Points: c.Len()})
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		s.writeError(w, http.StatusNotFound, "clustering not enabled (start with -peers)")
		return
	}
	s.writeJSON(w, http.StatusOK, s.cluster.StatusSnapshot())
}

func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, &MethodsResponse{Methods: s.reg.Names()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := &HealthResponse{
		Status:   "ok",
		InFlight: s.inFlight.Load(),
		Queued:   s.queued.Load(),
		Plans:    s.plans.len(),
		Clouds:   s.clouds.len(),
		Models:   s.models.Len(),
		Training: s.jobs != nil,
	}
	if s.jobs != nil {
		resp.JobsQueued, resp.JobsRunning = s.jobs.Depth()
	}
	s.writeJSON(w, http.StatusOK, resp)
}
