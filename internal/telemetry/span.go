package telemetry

import (
	"context"
	"sort"
	"sync"
	"time"

	"fillvoid/internal/trace"
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

// Span is one in-flight timed stage. Spans carry a hierarchical label
// path ("pretrain/feature-build"); children created with Child extend
// the path. When the span was started under a live trace it also owns
// that trace's record of the stage, so /metrics and the trace tree
// report the same start and duration. A nil Span (what a disabled
// registry hands out) is a valid no-op, so instrumentation sites never
// branch.
type Span struct {
	r     *Registry
	path  string
	start time.Time
	trace *trace.Span
}

// Start begins a stage timer labelled path. When ctx carries a live trace
// span, the stage is also recorded in that trace as its child, and the
// returned context carries the stage's trace span so spans started
// under it nest there. Without a trace the context is returned as is.
// A disabled registry returns (ctx, nil); nil spans no-op everywhere.
func (r *Registry) Start(ctx context.Context, path string) (context.Context, *Span) {
	if !r.enabled.Load() {
		return ctx, nil
	}
	s := &Span{r: r, path: path, start: time.Now()}
	if parent := trace.FromContext(ctx); parent != nil {
		s.trace = parent.StartChild(path, s.start)
		ctx = trace.ContextWith(ctx, s.trace)
	}
	return ctx, s
}

// Child begins a nested span labelled parent-path/name. Its trace
// parent, if any, is s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{r: s.r, path: s.path + "/" + name, start: time.Now()}
	c.trace = s.trace.StartChild(c.path, c.start)
	return c
}

// Path returns the span's full label path ("" for nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// SetAttr annotates the span's trace record (no-op without a trace).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.trace.SetAttr(key, value)
}

// SetError marks the span's trace record as failed (no-op without a
// trace).
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.trace.SetError(msg)
}

// End stops the span, records its duration under the label path and,
// under a trace, in the trace record; it returns the elapsed time (0
// for nil).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.spanStat(s.path).record(d)
	s.trace.EndWith(d)
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
