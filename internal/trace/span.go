package trace

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as stored in a trace: times are
// wall-clock nanoseconds so records serialize exactly and re-anchor in
// external viewers.
type SpanRecord struct {
	Name        string `json:"name"`
	SpanID      SpanID `json:"-"`
	ParentID    SpanID `json:"-"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	Attrs       []Attr `json:"attrs,omitempty"`
	Error       string `json:"error,omitempty"`
}

// TraceData is one completed, kept trace: the root's identity and
// timing plus every recorded span in completion order.
type TraceData struct {
	TraceID      TraceID      `json:"-"`
	RootID       SpanID       `json:"-"`
	Name         string       `json:"name"`
	StartUnixNS  int64        `json:"start_unix_ns"`
	DurationNS   int64        `json:"duration_ns"`
	Error        string       `json:"error,omitempty"`
	KeepReason   string       `json:"keep_reason"`
	Remote       bool         `json:"remote,omitempty"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// activeTrace accumulates spans while a trace is in flight.
type activeTrace struct {
	id     TraceID
	rootID SpanID
	remote bool

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	done    bool
}

// record appends one completed span, honouring the per-trace cap.
// It reports whether this span was the root (the trace is complete).
func (tr *activeTrace) record(rec SpanRecord, maxSpans int) (isRoot bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		tr.dropped++
		return false
	}
	if len(tr.spans) >= maxSpans {
		tr.dropped++
	} else {
		tr.spans = append(tr.spans, rec)
	}
	if rec.SpanID == tr.rootID {
		tr.done = true
		return true
	}
	return false
}

// Span is one in-flight operation within a trace. A nil *Span (what a
// disabled tracer hands out) is a valid no-op, so call sites never
// branch on whether tracing is active.
type Span struct {
	t      *Tracer
	tr     *activeTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	errMsg string
	ended  bool
}

// TraceID returns the ID of the trace the span belongs to (zero for
// nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil || s.tr == nil {
		return TraceID{}
	}
	return s.tr.id
}

// ID returns the span's own ID (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span. Later values for the same key are
// appended, not deduplicated; exports render them in order.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError marks the span (and, for a root, the whole trace) as
// failed; a trace whose root failed is labelled "error" in the ring.
func (s *Span) SetError(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	s.errMsg = msg
	s.mu.Unlock()
}

// End completes the span: the record lands in its trace, and if this
// span is the trace root the trace is stored in the tracer's ring. End
// is idempotent; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndWith(time.Since(s.start))
}

// EndWith completes the span with an externally measured duration, so a
// caller that timed the stage itself (internal/telemetry's spans) puts
// exactly its own start and duration in the trace. nil-safe and
// idempotent like End.
func (s *Span) EndWith(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		Name:        s.name,
		SpanID:      s.id,
		ParentID:    s.parent,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  int64(d),
		Attrs:       s.attrs,
		Error:       s.errMsg,
	}
	s.mu.Unlock()

	if isRoot := s.tr.record(rec, s.t.cfg.MaxSpans); isRoot {
		s.t.finish(s.tr, rec)
	}
}

// StartChild begins a child span that started at start. Children may
// be started and ended on any goroutine; the parent is always s. A nil
// span or a disabled tracer returns nil.
func (s *Span) StartChild(name string, start time.Time) *Span {
	if s == nil || !s.t.enabled.Load() {
		return nil
	}
	return s.t.newSpan(s.tr, s.id, name, start)
}

// ctxKey keys the span stored in a context.
type ctxKey struct{}

// ContextWith returns a context carrying sp.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
