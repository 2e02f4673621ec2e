package telemetry

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanReservoirSize is the per-path sample cap for quantile tracking:
// a fixed reservoir bounds memory at 2 KiB per span path no matter how
// many spans complete, while keeping a uniform sample of the full
// duration history for p50/p95/p99.
const spanReservoirSize = 256

// SpanStat aggregates every completed span with one label path.
type SpanStat struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
	last  time.Duration
	// samples is a uniform reservoir (algorithm R) of completed span
	// durations in ns; rng drives replacement once the reservoir is
	// full. The xorshift state is seeded with a fixed constant so runs
	// are reproducible — statistical uniformity is all the reservoir
	// needs, not unpredictability.
	samples []int64
	rng     uint64
}

func (s *SpanStat) record(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || d < s.min {
		s.min = d
	}
	if d > s.max {
		s.max = d
	}
	s.count++
	s.total += d
	s.last = d
	if len(s.samples) < spanReservoirSize {
		if s.samples == nil {
			s.samples = make([]int64, 0, 8)
			s.rng = 0x9E3779B97F4A7C15
		}
		s.samples = append(s.samples, int64(d))
		return
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % uint64(s.count); j < spanReservoirSize {
		s.samples[j] = int64(d)
	}
}

// Quantile returns the q-quantile (0 < q <= 1, nearest-rank) of the
// reservoir-sampled duration history, or 0 when no span has completed.
// The estimate is exact until the path's count exceeds the reservoir
// size, then converges as a uniform subsample.
func (s *SpanStat) Quantile(q float64) time.Duration {
	s.mu.Lock()
	cp := append([]int64(nil), s.samples...)
	s.mu.Unlock()
	return quantileNS(cp, q)
}

// quantileNS computes the nearest-rank q-quantile of ns samples,
// sorting in place.
func quantileNS(ns []int64, q float64) time.Duration {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	idx := int(q*float64(len(ns))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ns) {
		idx = len(ns) - 1
	}
	return time.Duration(ns[idx])
}

// Count returns how many spans completed under this label.
func (s *SpanStat) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Total returns the summed duration of all completed spans.
func (s *SpanStat) Total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Last returns the duration of the most recently completed span.
func (s *SpanStat) Last() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Span is one in-flight timed stage, the only span type in the
// module. It carries a hierarchical label path ("pretrain/feature-build");
// children created with Child extend the path. A span that belongs to
// a trace also carries its trace, its own span ID, its parent's, and
// the attributes and error its trace record will hold. End takes one
// measurement and writes both the per-path aggregate and, in a trace,
// the trace record, so /metrics and the trace tree cannot disagree. A
// nil Span (what a disabled registry hands out) is a valid no-op, so
// instrumentation sites never branch.
type Span struct {
	r     *Registry
	path  string
	start time.Time
	ended atomic.Bool // guards both records: only the first End writes
	t     *traced     // nil for an untraced span
}

// traced is a span's part in its trace, allocated only for spans in a
// trace so an untraced span stays one small allocation.
type traced struct {
	tr     *activeTrace
	id     SpanID
	parent SpanID // zero for a fresh root

	mu     sync.Mutex
	attrs  []Attr
	errMsg string
}

// ctxKey keys the traced span stored in a context.
type ctxKey struct{}

// FromContext returns the traced span ctx carries, or nil. The span is
// borrowed: its opener ends it.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start begins a stage timer labelled path. When ctx carries a traced
// span, the stage joins that trace as its child, and the returned
// context carries the stage so spans started under it nest there.
// Without a trace the context is returned as is. A disabled registry
// returns (ctx, nil); nil spans no-op everywhere.
func (r *Registry) Start(ctx context.Context, path string) (context.Context, *Span) {
	if !r.enabled.Load() {
		return ctx, nil
	}
	s := &Span{r: r, path: path, start: time.Now()}
	if parent := FromContext(ctx); parent != nil {
		s.t = &traced{tr: parent.t.tr, id: NewSpanID(), parent: parent.t.id}
		ctx = context.WithValue(ctx, ctxKey{}, s)
	}
	return ctx, s
}

// StartTrace opens the root span of a new trace, labelled path. A
// well-formed W3C traceparent continues the caller's trace: the root
// keeps its trace ID, parents under its span, and the trace is marked
// remote. Anything else, "" included, starts a fresh trace. Any span
// ctx already carries is ignored. The returned context carries the
// root, so stages started under it nest there; when the root ends, the
// trace lands in r's ring. A disabled registry returns (ctx, nil).
func (r *Registry) StartTrace(ctx context.Context, path, traceparent string) (context.Context, *Span) {
	if !r.enabled.Load() {
		return ctx, nil
	}
	t := &traced{id: NewSpanID()}
	t.tr = &activeTrace{reg: r, rootID: t.id}
	if traceparent != "" {
		if tid, pid, _, err := ParseTraceparent(traceparent); err == nil {
			t.tr.id, t.tr.remote, t.parent = tid, true, pid
		}
	}
	if t.tr.id.IsZero() {
		t.tr.id = NewTraceID()
	}
	s := &Span{r: r, path: path, start: time.Now(), t: t}
	r.tracesStarted.Add(1)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Child begins a nested span labelled parent-path/name. In a trace,
// its parent is s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{r: s.r, path: s.path + "/" + name, start: time.Now()}
	if s.t != nil {
		c.t = &traced{tr: s.t.tr, id: NewSpanID(), parent: s.t.id}
	}
	return c
}

// Path returns the span's full label path ("" for nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// ID returns the span's own ID (zero for nil or untraced spans).
func (s *Span) ID() SpanID {
	if s == nil || s.t == nil {
		return SpanID{}
	}
	return s.t.id
}

// TraceID returns the ID of the span's trace (zero for nil or untraced
// spans).
func (s *Span) TraceID() TraceID {
	if s == nil || s.t == nil {
		return TraceID{}
	}
	return s.t.tr.id
}

// Traceparent returns the W3C traceparent header that continues the
// span's trace under it, for a response echo or an outgoing request
// ("" for nil or untraced spans).
func (s *Span) Traceparent() string {
	if s == nil || s.t == nil {
		return ""
	}
	return FormatTraceparent(s.t.tr.id, s.t.id, true)
}

// SetAttr annotates the span's trace record (no-op without a trace).
// Later values for the same key are appended, not deduplicated;
// exports render them in order.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.attrs = append(s.t.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// SetError marks the span's trace record as failed (no-op without a
// trace or for an empty msg); a trace whose root failed is labelled
// "error" in the ring.
func (s *Span) SetError(msg string) {
	if s == nil || s.t == nil || msg == "" {
		return
	}
	s.t.mu.Lock()
	s.t.errMsg = msg
	s.t.mu.Unlock()
}

// End stops the span and records one measurement: the duration under
// the label path and, in a trace, the trace record with the same start
// and duration; ending a root moves its trace into the ring. It returns
// the elapsed time. Only the first End records; later calls, and nil
// spans, return 0.
func (s *Span) End() time.Duration {
	if s == nil || s.ended.Swap(true) {
		return 0
	}
	d := time.Since(s.start)
	s.r.spanStat(s.path).record(d)
	if t := s.t; t != nil {
		t.mu.Lock()
		rec := SpanRecord{
			Name:        s.path,
			SpanID:      t.id,
			ParentID:    t.parent,
			StartUnixNS: s.start.UnixNano(),
			DurationNS:  int64(d),
			Attrs:       t.attrs,
			Error:       t.errMsg,
		}
		t.mu.Unlock()
		t.tr.record(rec)
	}
	return d
}

// spanStat returns (creating on first use) the aggregate for a path.
func (r *Registry) spanStat(path string) *SpanStat {
	r.mu.RLock()
	st := r.spans[path]
	r.mu.RUnlock()
	if st != nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st = r.spans[path]; st == nil {
		st = &SpanStat{}
		r.spans[path] = st
	}
	return st
}

// SpanStatFor returns the aggregate stats recorded under a label path,
// or nil if no span with that path has completed.
func (r *Registry) SpanStatFor(path string) *SpanStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.spans[path]
}
