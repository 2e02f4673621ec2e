package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// A trace is the tree of spans one request or command ran. Its root
// opens with Registry.StartTrace; every span started under the root's
// context (Registry.Start) or from a span in the tree (Span.Child)
// joins it, and when the root ends the completed tree lands in the
// ring of the registry that opened the root. The ring keeps every
// trace, labelled "error" when its root failed and "sampled"
// otherwise, and exports as Chrome trace-event JSON (chrome://tracing,
// Perfetto) via /debug/traces and the -trace-out flag.

const (
	// traceRingSize is how many completed traces a registry keeps: the
	// newest are inspectable, older ones are overwritten.
	traceRingSize = 128
	// maxTraceSpans caps the spans recorded per trace; beyond it spans
	// are counted as dropped rather than stored, so one pathological
	// request cannot hold the heap hostage.
	maxTraceSpans = 4096
)

// TraceID identifies one end-to-end request across every span it
// touches: 16 bytes, rendered as 32 lowercase hex digits, the W3C
// trace-context format, so IDs round-trip through traceparent headers.
type TraceID [16]byte

// SpanID identifies one span within a trace: 8 bytes, 16 hex digits.
type SpanID [8]byte

// String renders the ID as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is all zeros, the value W3C reserves
// for "absent".
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeros.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// parseHexID decodes exactly len(dst) bytes of hex into dst, refusing
// the all-zero ID.
func parseHexID(dst []byte, s, what string) error {
	if len(s) != 2*len(dst) {
		return fmt.Errorf("telemetry: %s %q is not %d hex digits", what, s, 2*len(dst))
	}
	if _, err := hex.Decode(dst, []byte(strings.ToLower(s))); err != nil {
		return fmt.Errorf("telemetry: bad %s %q: %w", what, s, err)
	}
	for _, b := range dst {
		if b != 0 {
			return nil
		}
	}
	return fmt.Errorf("telemetry: %s is all zeros", what)
}

// parseTraceID decodes 32 hex digits into a TraceID.
func parseTraceID(s string) (TraceID, error) {
	var id TraceID
	if err := parseHexID(id[:], s, "trace id"); err != nil {
		return TraceID{}, err
	}
	return id, nil
}

// idRNG is a mutex-guarded xorshift128+ generator for trace and span
// IDs, seeded once from crypto/rand (falling back to the clock if the
// system source is unavailable). IDs need uniqueness and speed, not
// cryptographic strength; a locked PRNG avoids a syscall per span.
var idRNG struct {
	mu     sync.Mutex
	s0, s1 uint64
}

func init() {
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		now := uint64(time.Now().UnixNano())
		binary.LittleEndian.PutUint64(seed[:8], now)
		binary.LittleEndian.PutUint64(seed[8:], now^0x9E3779B97F4A7C15)
	}
	idRNG.s0 = binary.LittleEndian.Uint64(seed[:8]) | 1
	idRNG.s1 = binary.LittleEndian.Uint64(seed[8:]) | 1
}

// randUint64 steps the shared xorshift128+ state.
func randUint64() uint64 {
	idRNG.mu.Lock()
	defer idRNG.mu.Unlock()
	x, y := idRNG.s0, idRNG.s1
	idRNG.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	idRNG.s1 = x
	return x + y
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], randUint64())
		binary.BigEndian.PutUint64(id[8:], randUint64())
	}
	return id
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], randUint64())
	}
	return id
}

// FormatTraceparent renders a W3C trace-context traceparent header
// (version 00): "00-<trace-id>-<parent-id>-<flags>", flags 01 when
// sampled.
func FormatTraceparent(t TraceID, s SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + t.String() + "-" + s.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header into its trace ID,
// parent span ID and sampled flag. Future versions (anything but "ff")
// are accepted per the spec as long as the version-00 prefix fields
// parse; extra fields after the flags are ignored.
func ParseTraceparent(h string) (TraceID, SpanID, bool, error) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return TraceID{}, SpanID{}, false, fmt.Errorf("telemetry: traceparent %q: want version-traceid-parentid-flags", h)
	}
	ver := strings.ToLower(parts[0])
	if len(ver) != 2 || ver == "ff" {
		return TraceID{}, SpanID{}, false, fmt.Errorf("telemetry: traceparent %q: invalid version %q", h, parts[0])
	}
	tid, err := parseTraceID(parts[1])
	if err != nil {
		return TraceID{}, SpanID{}, false, err
	}
	var sid SpanID
	if err := parseHexID(sid[:], parts[2], "span id"); err != nil {
		return TraceID{}, SpanID{}, false, err
	}
	var flags [1]byte
	if len(parts[3]) != 2 {
		return TraceID{}, SpanID{}, false, fmt.Errorf("telemetry: traceparent %q: invalid flags %q", h, parts[3])
	}
	if _, err := hex.Decode(flags[:], []byte(strings.ToLower(parts[3]))); err != nil {
		return TraceID{}, SpanID{}, false, fmt.Errorf("telemetry: traceparent %q: invalid flags %q", h, parts[3])
	}
	return tid, sid, flags[0]&1 == 1, nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// SpanRecord is one completed span as stored in a trace: times are
// wall-clock nanoseconds so records serialize exactly and re-anchor in
// external viewers.
type SpanRecord struct {
	Name        string
	SpanID      SpanID
	ParentID    SpanID
	StartUnixNS int64
	DurationNS  int64
	Attrs       []Attr
	Error       string
}

// TraceData is one completed, kept trace: the root's identity and
// timing plus every recorded span in completion order.
type TraceData struct {
	TraceID      TraceID
	RootID       SpanID
	Name         string
	StartUnixNS  int64
	DurationNS   int64
	Error        string
	KeepReason   string
	Remote       bool
	DroppedSpans int
	Spans        []SpanRecord
}

// activeTrace accumulates spans while a trace is in flight.
type activeTrace struct {
	reg    *Registry // opened the root; its ring receives the trace
	id     TraceID
	rootID SpanID
	remote bool

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	done    bool
}

// record appends one completed span, honouring the per-trace cap, and
// moves the trace into its registry's ring when the span is the root.
func (tr *activeTrace) record(rec SpanRecord) {
	tr.mu.Lock()
	if tr.done {
		tr.dropped++
		tr.mu.Unlock()
		return
	}
	if len(tr.spans) >= tr.reg.maxSpans {
		tr.dropped++
	} else {
		tr.spans = append(tr.spans, rec)
	}
	if rec.SpanID != tr.rootID {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	reason := "sampled"
	if rec.Error != "" {
		reason = "error"
	}
	td := &TraceData{
		TraceID:      tr.id,
		RootID:       tr.rootID,
		Name:         rec.Name,
		StartUnixNS:  rec.StartUnixNS,
		DurationNS:   rec.DurationNS,
		Error:        rec.Error,
		KeepReason:   reason,
		Remote:       tr.remote,
		DroppedSpans: tr.dropped,
		Spans:        tr.spans,
	}
	tr.spans = nil // ownership moves to the ring
	tr.mu.Unlock()
	tr.reg.keep(td)
}

// keep stores a completed trace in the ring.
func (r *Registry) keep(td *TraceData) {
	r.traceMu.Lock()
	r.ring[r.ringNext] = td
	r.ringNext = (r.ringNext + 1) % len(r.ring)
	if r.ringN < len(r.ring) {
		r.ringN++
	}
	r.traceMu.Unlock()
	r.tracesKept.Add(1)
}

// Traces returns the kept traces, newest first.
func (r *Registry) Traces() []*TraceData {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	out := make([]*TraceData, 0, r.ringN)
	for i := 0; i < r.ringN; i++ {
		out = append(out, r.ring[(r.ringNext-1-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// TraceByID returns the kept trace with the given ID, or nil.
func (r *Registry) TraceByID(id TraceID) *TraceData {
	for _, td := range r.Traces() {
		if td.TraceID == id {
			return td
		}
	}
	return nil
}

// ChromeEvent is one complete-event ("ph":"X") entry in the Chrome
// trace-event format, loadable by Perfetto and chrome://tracing.
// Timestamps and durations are microseconds, per the format.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// chromeTrace renders traces in the Chrome trace-event format. Each
// trace gets its own tid so requests stack as separate tracks in the
// viewer; span nesting within a track comes from the ts/dur extents.
// IDs and annotations ride in args, so nothing is lost relative to
// TraceData: trace_id, span_id, parent_id, error, every Attr, and (on
// the root span) keep_reason and dropped_spans.
func chromeTrace(traces []*TraceData) ChromeTrace {
	out := ChromeTrace{
		TraceEvents:     []ChromeEvent{},
		DisplayTimeUnit: "ms",
	}
	for i, tr := range traces {
		tid := i + 1
		for _, sp := range tr.Spans {
			args := map[string]string{
				"trace_id": tr.TraceID.String(),
				"span_id":  sp.SpanID.String(),
			}
			if !sp.ParentID.IsZero() {
				args["parent_id"] = sp.ParentID.String()
			}
			if sp.Error != "" {
				args["error"] = sp.Error
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			if sp.SpanID == tr.RootID {
				args["keep_reason"] = tr.KeepReason
				if tr.DroppedSpans > 0 {
					args["dropped_spans"] = fmt.Sprintf("%d", tr.DroppedSpans)
				}
			}
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: sp.Name,
				Cat:  "fillvoid",
				Ph:   "X",
				TS:   float64(sp.StartUnixNS) / 1e3,
				Dur:  float64(sp.DurationNS) / 1e3,
				PID:  1,
				TID:  tid,
				Args: args,
			})
		}
	}
	return out
}

// writeChrome writes traces as indented trace-event JSON.
func writeChrome(w io.Writer, traces []*TraceData) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeTrace(traces)); err != nil {
		return fmt.Errorf("telemetry: encoding chrome trace: %w", err)
	}
	return nil
}

// writeChromeFile writes traces as trace-event JSON to path, creating
// or truncating it.
func writeChromeFile(path string, traces []*TraceData) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: creating %s: %w", path, err)
	}
	if err := writeChrome(f, traces); err != nil {
		f.Close() //lint:allow errdrop: the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: closing %s: %w", path, err)
	}
	return nil
}
