// Package telemetry is the observability layer for the fillvoid
// pipeline: a stdlib-only metrics registry with atomic counters, gauges
// and bucketed histograms; one Span type for named stage timing with
// hierarchical labels ("pretrain/feature-build", "reconstruct/fused-infer",
// ...) and per-request trace trees; a TrainObserver hook delivering
// per-epoch training statistics; JSON snapshot export; and an optional
// HTTP server exposing /metrics (JSON + expvar), net/http/pprof and
// /debug/traces.
//
// Request and command roots open with Registry.StartTrace, which
// continues an incoming W3C traceparent or starts a fresh trace, and
// stage code opens spans with Registry.Start(ctx, path) or Span.Child.
// Ending a span records its duration in the registry's per-path
// aggregate and, when the span belongs to a trace, in that trace with
// the same start and duration. The trace parent comes from ctx alone,
// or for Child from the span it is called on, so a stage reached
// without a traced ctx shows in /metrics but not in any trace tree.
// Completed traces land in a bounded ring in the registry that opened
// their root (see trace.go).
//
// The package is designed to be opt-in-cheap: the global default
// registry starts disabled, and every instrumentation site in the hot
// paths (parallel loops, reconstruction batches, training epochs) pays
// only a single atomic load when telemetry is off. Enable() — or the
// -metrics-out / -pprof / -trace-out CLI flags — turns collection on.
//
// Instrumented library code records into the swappable default registry
// (Default / SetDefault); tests and embedders that need isolation
// construct private instances with NewRegistry and pass them where a
// *Registry is accepted (stream.Config.Telemetry, Serve, ...).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named counters, gauges,
// histograms, span statistics, training series and completed traces.
// The zero value is not usable; construct with NewRegistry (enabled)
// or use Default (disabled until Enable).
type Registry struct {
	enabled atomic.Bool

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*SpanStat
	series   map[string]*TrainSeries

	// Kept traces: a circular ring with ringN valid entries ending at
	// ringNext-1, and the per-trace span cap.
	traceMu  sync.Mutex
	ring     []*TraceData
	ringN    int
	ringNext int
	maxSpans int

	tracesStarted atomic.Int64
	tracesKept    atomic.Int64
}

// NewRegistry returns an empty, enabled registry. Explicitly
// constructed instances are assumed wanted; only the process-global
// default starts disabled.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*SpanStat),
		series:   make(map[string]*TrainSeries),
		ring:     make([]*TraceData, traceRingSize),
		maxSpans: maxTraceSpans,
	}
	r.enabled.Store(true)
	return r
}

var defaultReg atomic.Pointer[Registry]

func init() {
	r := NewRegistry()
	r.enabled.Store(false)
	defaultReg.Store(r)
}

// Default returns the process-global registry that library
// instrumentation records into. It starts disabled.
func Default() *Registry { return defaultReg.Load() }

// SetDefault swaps the global registry (nil is ignored) and returns the
// previous one, so embedders can inject their own instance under all
// library instrumentation.
func SetDefault(r *Registry) *Registry {
	if r == nil {
		return Default()
	}
	return defaultReg.Swap(r)
}

// Enable turns on collection in the global default registry.
func Enable() { Default().SetEnabled(true) }

// SetEnabled flips collection on or off. Disabled registries drop
// counter/gauge/histogram updates and hand out no-op spans and trace
// roots, keeping instrumented hot paths at a single atomic load of
// overhead.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether this registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Reset drops every metric, span statistic, training series and kept
// trace while keeping the enabled state. Mainly for tests and
// long-lived servers that snapshot-and-reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
	r.spans = make(map[string]*SpanStat)
	r.series = make(map[string]*TrainSeries)
	r.mu.Unlock()
	r.traceMu.Lock()
	clear(r.ring)
	r.ringN, r.ringNext = 0, 0
	r.traceMu.Unlock()
}

// --- Counter ---

// Counter is a monotonically increasing atomic int64. A nil Counter is
// a valid no-op, which is what a disabled registry hands out.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. A
// disabled registry returns nil (whose methods are no-ops), so callers
// never need to branch.
func (r *Registry) Counter(name string) *Counter {
	if !r.enabled.Load() {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// --- Gauge ---

// Gauge is an atomically updated float64 (last-write-wins Set plus
// lock-free Add). A nil Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the named gauge, creating it on first use (nil when the
// registry is disabled).
func (r *Registry) Gauge(name string) *Gauge {
	if !r.enabled.Load() {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// --- Histogram ---

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; observations above the last bound land in an implicit
// +Inf bucket. Count and Sum track the full distribution. All methods
// are lock-free and safe for concurrent use; a nil Histogram is a valid
// no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefBuckets is a general-purpose exponential bucket layout for
// second-denominated durations (1ms .. ~100s).
func DefBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket counts; the final element is the
// +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later bounds are ignored; nil bounds use
// DefBuckets). Disabled registries return nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if !r.enabled.Load() {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if bounds == nil {
		bounds = DefBuckets()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
