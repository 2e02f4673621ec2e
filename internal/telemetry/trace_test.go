package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseChrome decodes trace-event JSON, the read half of the export
// round trip.
func parseChrome(t *testing.T, b []byte) ChromeTrace {
	t.Helper()
	var ct ChromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("parsing chrome trace: %v", err)
	}
	return ct
}

// root opens a fresh trace root on r.
func root(r *Registry, path string) (context.Context, *Span) {
	return r.StartTrace(context.Background(), path, "")
}

func TestIDRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	if tid.IsZero() || sid.IsZero() {
		t.Fatal("fresh IDs must be non-zero")
	}
	gotT, err := parseTraceID(tid.String())
	if err != nil || gotT != tid {
		t.Fatalf("trace id round trip: got %v, %v", gotT, err)
	}
	_, gotS, _, err := ParseTraceparent(FormatTraceparent(tid, sid, false))
	if err != nil || gotS != sid {
		t.Fatalf("span id round trip: got %v, %v", gotS, err)
	}
	if _, err := parseTraceID(strings.Repeat("0", 32)); err == nil {
		t.Fatal("all-zero trace id must be rejected")
	}
	if _, err := parseTraceID("xyz"); err == nil {
		t.Fatal("short trace id must be rejected")
	}
}

func TestTraceparent(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	h := FormatTraceparent(tid, sid, true)
	gt, gs, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if gt != tid || gs != sid || !sampled {
		t.Fatalf("round trip lost fields: %v %v %v", gt, gs, sampled)
	}
	// Future versions parse; extra fields are ignored.
	if _, _, _, err := ParseTraceparent("cc-" + tid.String() + "-" + sid.String() + "-00-extra"); err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	for _, bad := range []string{
		"", "00", "ff-" + tid.String() + "-" + sid.String() + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sid.String() + "-01",
		"00-" + tid.String() + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + tid.String() + "-" + sid.String() + "-0",
		"00-" + tid.String() + "-" + sid.String() + "-zz",
	} {
		if _, _, _, err := ParseTraceparent(bad); err == nil {
			t.Fatalf("ParseTraceparent(%q) should fail", bad)
		}
	}
}

func TestNestingAndRing(t *testing.T) {
	r := NewRegistry()
	ctx, rt := root(r, "root")
	if rt == nil {
		t.Fatal("enabled registry returned nil root")
	}
	_, child := r.Start(ctx, "child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	rt.SetAttr("k", "v")
	rt.End()

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 kept trace, got %d", len(traces))
	}
	td := traces[0]
	if td.Name != "root" || len(td.Spans) != 3 {
		t.Fatalf("trace %q has %d spans, want root with 3", td.Name, len(td.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatal("child must parent under root")
	}
	if byName["child/grand"].ParentID != byName["child"].SpanID {
		t.Fatal("grand must parent under child")
	}
	if got := r.TraceByID(td.TraceID); got == nil || got.RootID != byName["root"].SpanID {
		t.Fatal("TraceByID lookup failed")
	}
}

func TestDisabledTracerIsNoOp(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	upstream := FormatTraceparent(NewTraceID(), NewSpanID(), true)
	for _, tp := range []string{"", upstream} {
		ctx, sp := r.StartTrace(context.Background(), "x", tp)
		if sp != nil {
			t.Fatalf("disabled registry must hand out nil trace roots (traceparent %q)", tp)
		}
		// All nil-span methods must be safe.
		sp.SetAttr("a", "b")
		sp.SetError("boom")
		sp.Child("c").End()
		sp.End()
		if FromContext(ctx) != nil {
			t.Fatal("disabled StartTrace must not plant a span in the context")
		}
		if _, st := r.Start(ctx, "stage"); st != nil {
			t.Fatal("disabled registry returned a live stage under a disabled root")
		}
	}
	if n := len(r.Traces()); n != 0 {
		t.Fatalf("disabled registry kept %d traces", n)
	}
}

func TestRemoteContinuation(t *testing.T) {
	r := NewRegistry()
	upstream := NewTraceID()
	parent := NewSpanID()
	_, sp := r.StartTrace(context.Background(), "handler", FormatTraceparent(upstream, parent, true))
	if sp.TraceID() != upstream {
		t.Fatal("remote root must keep the upstream trace id")
	}
	if want := FormatTraceparent(upstream, sp.ID(), true); sp.Traceparent() != want {
		t.Fatalf("outgoing traceparent %q, want %q", sp.Traceparent(), want)
	}
	sp.End()
	td := r.Traces()[0]
	if !td.Remote || td.TraceID != upstream {
		t.Fatalf("remote trace not recorded: remote=%v id=%v", td.Remote, td.TraceID)
	}
	if td.Spans[0].ParentID != parent {
		t.Fatal("remote root must parent under the upstream span id")
	}

	// A malformed header starts a fresh local trace instead.
	_, fresh := r.StartTrace(context.Background(), "handler", "00-nonsense")
	fresh.End()
	if td := r.Traces()[0]; td.Remote || td.TraceID == upstream || !td.Spans[0].ParentID.IsZero() {
		t.Fatalf("malformed traceparent continued a trace: %+v", td)
	}
}

func TestTailSamplingKeepsErrorsAndSlow(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 24; i++ {
		_, sp := root(r, "fast")
		sp.End()
	}
	_, esp := root(r, "failing")
	esp.SetError("boom")
	esp.End()
	_, ssp := root(r, "slow")
	time.Sleep(20 * time.Millisecond) // far beyond the ~µs fast roots
	ssp.End()

	// Every trace is kept: a failed root labels its trace "error", any
	// other trace, slow or fast, is "sampled".
	kept := map[string]string{}
	for _, td := range r.Traces() {
		kept[td.Name] = td.KeepReason
	}
	if kept["failing"] != "error" {
		t.Fatalf("error trace kept as %q, want error", kept["failing"])
	}
	if kept["slow"] != "sampled" || kept["fast"] != "sampled" {
		t.Fatalf("slow/fast traces kept as %q/%q, want sampled", kept["slow"], kept["fast"])
	}
	if started, keptN := r.tracesStarted.Load(), r.tracesKept.Load(); started != 26 || keptN != started {
		t.Fatalf("stats started=%d kept=%d", started, keptN)
	}
}

func TestMaxSpansBound(t *testing.T) {
	r := NewRegistry()
	r.maxSpans = 4
	_, rt := root(r, "root")
	for i := 0; i < 10; i++ {
		rt.Child("c").End()
	}
	rt.End()
	td := r.Traces()[0]
	if len(td.Spans) != 4 {
		t.Fatalf("span cap not enforced: %d spans", len(td.Spans))
	}
	if td.DroppedSpans != 7 {
		// 10 children + 1 root = 11 ends, 4 stored.
		t.Fatalf("dropped %d spans, want 7", td.DroppedSpans)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRegistry()
	r.ring = make([]*TraceData, 4)
	for i := 0; i < 10; i++ {
		_, sp := root(r, "t")
		sp.End()
	}
	if n := len(r.Traces()); n != 4 {
		t.Fatalf("ring holds %d, want 4", n)
	}
	r.Reset()
	if len(r.Traces()) != 0 {
		t.Fatal("Reset left traces behind")
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	r := NewRegistry()
	ctx, rt := root(r, "root")
	_, child := r.Start(ctx, "child")
	child.SetAttr("key", "value")
	child.SetError("oops")
	child.End()
	rt.End()
	td := r.Traces()[0]

	var buf bytes.Buffer
	if err := writeChrome(&buf, r.Traces()); err != nil {
		t.Fatal(err)
	}
	ct := parseChrome(t, buf.Bytes())
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("want 2 events, got %d", len(ct.TraceEvents))
	}
	byName := map[string]ChromeEvent{}
	for _, ev := range ct.TraceEvents {
		byName[ev.Name] = ev
	}
	// Field-exact checks against the source records.
	for _, rec := range td.Spans {
		ev, ok := byName[rec.Name]
		if !ok {
			t.Fatalf("span %q missing from export", rec.Name)
		}
		if ev.Ph != "X" || ev.Cat != "fillvoid" || ev.PID != 1 || ev.TID != 1 {
			t.Fatalf("event %q malformed: %+v", rec.Name, ev)
		}
		if ev.TS != float64(rec.StartUnixNS)/1e3 || ev.Dur != float64(rec.DurationNS)/1e3 {
			t.Fatalf("event %q timing mismatch: ts=%v dur=%v", rec.Name, ev.TS, ev.Dur)
		}
		if ev.Args["trace_id"] != td.TraceID.String() || ev.Args["span_id"] != rec.SpanID.String() {
			t.Fatalf("event %q id args mismatch: %v", rec.Name, ev.Args)
		}
	}
	cev := byName["child"]
	if cev.Args["key"] != "value" || cev.Args["error"] != "oops" {
		t.Fatalf("attrs lost in export: %v", cev.Args)
	}
	if cev.Args["parent_id"] != byName["root"].Args["span_id"] {
		t.Fatal("parent_id must point at the root span")
	}
	rev := byName["root"]
	if rev.Args["keep_reason"] == "" {
		t.Fatal("root event must carry keep_reason")
	}
}

func TestWriteChromeFile(t *testing.T) {
	r := NewRegistry()
	_, sp := root(r, "only")
	sp.End()
	path := t.TempDir() + "/trace.json"
	if err := writeChromeFile(path, r.Traces()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct := parseChrome(t, b)
	if len(ct.TraceEvents) != 1 || ct.TraceEvents[0].Name != "only" {
		t.Fatalf("file round trip lost events: %+v", ct.TraceEvents)
	}
}

func TestConcurrentTraces(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, rt := root(r, "req")
				_, c := r.Start(ctx, "stage")
				c.End()
				rt.End()
			}
		}()
	}
	wg.Wait()
	started, kept := r.tracesStarted.Load(), r.tracesKept.Load()
	if started != 800 || kept != 800 {
		t.Fatalf("started=%d kept=%d, want 800/800", started, kept)
	}
	for _, td := range r.Traces() {
		if len(td.Spans) != 2 {
			t.Fatalf("trace with %d spans, want 2", len(td.Spans))
		}
	}
	if got := r.SpanStatFor("req").Count(); got != 800 {
		t.Fatalf("req roots counted %d times in the aggregate, want 800", got)
	}
}
