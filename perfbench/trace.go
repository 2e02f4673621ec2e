package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// offsets from the tracer's start.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Op     int // the op (or probe input) the span belongs to
	Name   string
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a cheap no-op, which is how
// untraced runs measure end-to-end metrics without tracing overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// samples holds per-layer measurements by per-layer metric name.
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// record adds one per-layer measurement under a per-layer metric name.
func (t *tracer) record(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[metric] = append(t.samples[metric], v)
}

// layerMetrics returns the median of each per-layer metric's samples.
func (t *tracer) layerMetrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.samples))
	for name, xs := range t.samples {
		out[name] = median(xs)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its children cover. Children may overlap one
// another (concurrent requests), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; load the file in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimeMS is selfTimes of every recorded span, in milliseconds.
func (t *tracer) selfTimeMS() map[string]float64 {
	out := map[string]float64{}
	for name, d := range selfTimes(t.snapshot()) {
		out[name] = ms(d)
	}
	return out
}

// writeChrome writes every closed span as Chrome trace-event JSON, one
// row (tid) per op, with each span name's total self time alongside.
func (t *tracer) writeChrome(path string) error {
	spans := t.snapshot()
	doc := struct {
		TraceEvents []chromeEvent      `json:"traceEvents"`
		SelfTimeMS  map[string]float64 `json:"selfTimeMs"`
	}{SelfTimeMS: t.selfTimeMS()}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Op,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
