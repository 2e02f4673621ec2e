package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSpanQuantiles(t *testing.T) {
	r := NewRegistry()
	// 100 spans with known durations 1ms..100ms, recorded directly.
	for i := 1; i <= 100; i++ {
		r.spanStat("stage").record(time.Duration(i) * time.Millisecond)
	}
	st := r.spanStat("stage")
	p50 := st.Quantile(0.50)
	p95 := st.Quantile(0.95)
	p99 := st.Quantile(0.99)
	if p50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", p50)
	}
	if p95 != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", p95)
	}
	if p99 != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", p99)
	}

	snap := r.Snapshot()
	ss, ok := snap.Spans["stage"]
	if !ok {
		t.Fatal("span missing from snapshot")
	}
	if ss.P50NS != int64(50*time.Millisecond) || ss.P95NS != int64(95*time.Millisecond) || ss.P99NS != int64(99*time.Millisecond) {
		t.Fatalf("snapshot percentiles p50=%d p95=%d p99=%d", ss.P50NS, ss.P95NS, ss.P99NS)
	}
}

func TestSpanQuantileReservoirBounded(t *testing.T) {
	r := NewRegistry()
	// Far more observations than the reservoir holds: quantiles stay
	// plausible (within the observed range) and memory stays bounded.
	for i := 0; i < 10*spanReservoirSize; i++ {
		r.spanStat("hot").record(time.Millisecond)
	}
	st := r.spanStat("hot")
	st.mu.Lock()
	n := len(st.samples)
	st.mu.Unlock()
	if n > spanReservoirSize {
		t.Fatalf("reservoir grew to %d, cap %d", n, spanReservoirSize)
	}
	if q := st.Quantile(0.99); q != time.Millisecond {
		t.Fatalf("uniform input p99 = %v, want 1ms", q)
	}
	if q := st.Quantile(0.5); q != time.Millisecond {
		t.Fatalf("uniform input p50 = %v, want 1ms", q)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(3)
	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["requests"] != 3 {
		t.Fatalf("counters = %v", s.Counters)
	}
}

func TestRegisterDebugHandler(t *testing.T) {
	r := NewRegistry()
	_, sp := r.StartTrace(context.Background(), "req", "")
	sp.SetError("boom")
	sp.End()
	mux := http.NewServeMux()
	RegisterDebug(mux, r)
	get := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec
	}

	// /debug/traces serves the registry's index.
	rec := get("/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var idx tracesIndex
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil || len(idx.Traces) != 1 {
		t.Fatalf("/debug/traces is not a trace index: %v %s", err, rec.Body.Bytes())
	}
	row := idx.Traces[0]
	if !idx.Enabled || idx.Started != 1 || idx.Kept != 1 || row.Name != "req" ||
		row.TraceID != sp.TraceID().String() || row.KeepReason != "error" || row.Error != "boom" || row.Spans != 1 {
		t.Fatalf("index %+v", idx)
	}
	// ?id= and ?format=chrome serve trace-event JSON; bad or unknown
	// ids are client errors.
	for _, target := range []string{"/debug/traces?id=" + row.TraceID, "/debug/traces?format=chrome"} {
		rec := get(target)
		var ct ChromeTrace
		if err := json.Unmarshal(rec.Body.Bytes(), &ct); err != nil || len(ct.TraceEvents) != 1 {
			t.Fatalf("%s: %d %v %s", target, rec.Code, err, rec.Body.Bytes())
		}
	}
	if code := get("/debug/traces?id=xyz").Code; code != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d", code)
	}
	if code := get("/debug/traces?id=" + NewTraceID().String()).Code; code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", code)
	}
	// pprof is mounted alongside.
	rec = get("/debug/pprof/cmdline")
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof route lost: %d", rec.Code)
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	s := StartRuntimeSampler(r, 10*time.Millisecond)
	// The constructor samples synchronously, so gauges exist before any
	// tick; then let at least one tick land for sched latency coverage.
	time.Sleep(30 * time.Millisecond)
	s.Stop()

	snap := r.Snapshot()
	for _, g := range []string{
		"runtime.goroutines", "runtime.heap_alloc_bytes", "runtime.heap_sys_bytes",
		"runtime.heap_objects", "runtime.stack_inuse_bytes", "runtime.next_gc_bytes",
		"runtime.gc_cpu_fraction", "runtime.num_gc",
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Fatalf("gauge %s missing after sampling", g)
		}
	}
	if snap.Gauges["runtime.goroutines"] < 1 {
		t.Fatalf("goroutines gauge = %v", snap.Gauges["runtime.goroutines"])
	}
	if snap.Gauges["runtime.heap_alloc_bytes"] <= 0 {
		t.Fatalf("heap gauge = %v", snap.Gauges["runtime.heap_alloc_bytes"])
	}
	// Stop is idempotent in effect: the goroutine exited, values remain.
	after := r.Snapshot().Gauges["runtime.goroutines"]
	if after != snap.Gauges["runtime.goroutines"] {
		t.Fatal("sampler kept running after Stop")
	}
}

func TestRuntimeSamplerDefaults(t *testing.T) {
	// nil registry falls back to Default, <=0 interval to 1s; the
	// sampler must still start and stop cleanly.
	s := StartRuntimeSampler(nil, 0)
	if s.reg != Default() {
		t.Fatal("nil registry did not fall back to Default")
	}
	if s.every != time.Second {
		t.Fatalf("interval = %v, want 1s", s.every)
	}
	s.Stop()
}
