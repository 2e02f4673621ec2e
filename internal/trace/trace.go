// Package trace adds per-request distributed tracing to the fillvoid
// pipeline: trace trees with W3C trace-context IDs, context
// propagation, and precise start/duration events for every stage a
// request touches.
//
// It complements internal/telemetry rather than replacing it:
// telemetry's Span aggregates by label path (how long does
// recon/execute take on average?), while a trace answers the question
// aggregation destroys — where did THIS request's 800ms go? The two
// meet on context.Context. Request and command roots start a trace with
// Tracer.Start or StartRemote and carry its span in the returned
// context; every telemetry.Registry.Start under that context adds a
// child record to the same trace with the stage's own start and
// duration. This package is the leaf underneath: it imports nothing
// from the rest of the module, and stage code never calls it directly.
//
// Completed traces land in a bounded ring: every trace is kept, and
// labelled "error" when its root failed, "sampled" otherwise. The ring
// exports as Chrome trace-event JSON (chrome://tracing / Perfetto) via
// /debug/traces or the -trace-out CLI flag.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Config bounds a Tracer. The zero value of every field picks a
// sensible default.
type Config struct {
	// Capacity is the completed-trace ring size (default 128): the
	// newest Capacity traces are inspectable, older ones are
	// overwritten.
	Capacity int
	// MaxSpans caps recorded spans per trace (default 4096); beyond it
	// spans are counted as dropped rather than stored, so one
	// pathological request cannot hold the heap hostage.
	MaxSpans int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 4096
	}
	return c
}

// Tracer collects per-request trace trees. Construct with New (or use
// the process Default, which starts disabled); all methods are safe
// for concurrent use, and a nil *Tracer is a valid no-op.
type Tracer struct {
	enabled atomic.Bool
	cfg     Config

	ringMu   sync.Mutex
	ring     []*TraceData // circular, ringN valid entries ending at ringNext-1
	ringN    int
	ringNext int

	started atomic.Int64
	kept    atomic.Int64
}

// New returns an enabled tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg.withDefaults()}
	t.ring = make([]*TraceData, t.cfg.Capacity)
	t.enabled.Store(true)
	return t
}

var defaultTracer atomic.Pointer[Tracer]

func init() {
	t := New(Config{})
	t.enabled.Store(false)
	defaultTracer.Store(t)
}

// Default returns the process-global tracer. Like the telemetry
// default registry it starts disabled; Enable (or a server's / CLI's
// tracing option) turns it on.
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault swaps the global tracer (nil is ignored) and returns the
// previous one.
func SetDefault(t *Tracer) *Tracer {
	if t == nil {
		return Default()
	}
	return defaultTracer.Swap(t)
}

// Enable turns on the process-global tracer.
func Enable() { Default().SetEnabled(true) }

// SetEnabled flips collection. While disabled, Start returns nil spans
// and existing spans start no children.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// Enabled reports whether the tracer is collecting.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Stats reports lifetime trace counts: roots started and traces
// completed into the ring.
func (t *Tracer) Stats() (started, kept int64) {
	if t == nil {
		return 0, 0
	}
	return t.started.Load(), t.kept.Load()
}

// Start begins a span. If ctx carries a span, the new one is its
// child; otherwise a new trace root is created. The returned context
// carries the span for downstream propagation. A disabled tracer
// returns (ctx, nil); nil spans no-op everywhere.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	var sp *Span
	if parent := FromContext(ctx); parent != nil {
		sp = t.newSpan(parent.tr, parent.id, name, time.Now())
	} else {
		sp = t.newRoot(name, NewTraceID(), SpanID{})
	}
	return ContextWith(ctx, sp), sp
}

// StartRemote begins a trace root that continues an incoming request:
// the caller supplies the upstream trace ID and parent span ID
// (typically parsed from a traceparent header), so the local tree
// stitches into the caller's distributed trace.
func (t *Tracer) StartRemote(ctx context.Context, name string, traceID TraceID, parentID SpanID) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if traceID.IsZero() {
		return t.Start(ctx, name)
	}
	sp := t.newRoot(name, traceID, parentID)
	sp.tr.remote = true
	return ContextWith(ctx, sp), sp
}

// newRoot creates the root span and its active trace.
func (t *Tracer) newRoot(name string, id TraceID, parentID SpanID) *Span {
	t.started.Add(1)
	tr := &activeTrace{id: id}
	sp := t.newSpan(tr, parentID, name, time.Now())
	tr.rootID = sp.id
	return sp
}

func (t *Tracer) newSpan(tr *activeTrace, parent SpanID, name string, start time.Time) *Span {
	return &Span{
		t:      t,
		tr:     tr,
		id:     NewSpanID(),
		parent: parent,
		name:   name,
		start:  start,
	}
}

// finish stores a completed trace in the ring, labelled "error" when
// its root failed and "sampled" otherwise.
func (t *Tracer) finish(tr *activeTrace, root SpanRecord) {
	reason := "sampled"
	if root.Error != "" {
		reason = "error"
	}
	tr.mu.Lock()
	td := &TraceData{
		TraceID:      tr.id,
		RootID:       tr.rootID,
		Name:         root.Name,
		StartUnixNS:  root.StartUnixNS,
		DurationNS:   root.DurationNS,
		Error:        root.Error,
		KeepReason:   reason,
		Remote:       tr.remote,
		DroppedSpans: tr.dropped,
		Spans:        tr.spans,
	}
	tr.spans = nil // ownership moves to the ring
	tr.mu.Unlock()

	t.ringMu.Lock()
	t.ring[t.ringNext] = td
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	if t.ringN < len(t.ring) {
		t.ringN++
	}
	t.ringMu.Unlock()
	t.kept.Add(1)
}

// Traces returns the kept traces, newest first.
func (t *Tracer) Traces() []*TraceData {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	out := make([]*TraceData, 0, t.ringN)
	for i := 0; i < t.ringN; i++ {
		idx := (t.ringNext - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// TraceByID returns the kept trace with the given ID, or nil.
func (t *Tracer) TraceByID(id TraceID) *TraceData {
	for _, td := range t.Traces() {
		if td.TraceID == id {
			return td
		}
	}
	return nil
}

// Reset drops every kept trace, keeping the enabled state. Mainly for
// tests.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	for i := range t.ring {
		t.ring[i] = nil
	}
	t.ringN, t.ringNext = 0, 0
}
