package trace

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	if tid.IsZero() || sid.IsZero() {
		t.Fatal("fresh IDs must be non-zero")
	}
	gotT, err := ParseTraceID(tid.String())
	if err != nil || gotT != tid {
		t.Fatalf("trace id round trip: got %v, %v", gotT, err)
	}
	gotS, err := ParseSpanID(sid.String())
	if err != nil || gotS != sid {
		t.Fatalf("span id round trip: got %v, %v", gotS, err)
	}
	if _, err := ParseTraceID(strings.Repeat("0", 32)); err == nil {
		t.Fatal("all-zero trace id must be rejected")
	}
	if _, err := ParseTraceID("xyz"); err == nil {
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
		"00-" + tid.String() + "-" + sid.String() + "-0",
	} {
		if _, _, _, err := ParseTraceparent(bad); err == nil {
			t.Fatalf("ParseTraceparent(%q) should fail", bad)
		}
	}
}

func TestNestingAndRing(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.Start(context.Background(), "root")
	if root == nil {
		t.Fatal("enabled tracer returned nil span")
	}
	_, child := tr.Start(ctx, "child")
	grand := child.StartChild("grand", time.Now())
	grand.End()
	child.End()
	root.SetAttr("k", "v")
	root.End()

	traces := tr.Traces()
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
	if byName["grand"].ParentID != byName["child"].SpanID {
		t.Fatal("grand must parent under child")
	}
	if got := tr.TraceByID(td.TraceID); got == nil || got.RootID != byName["root"].SpanID {
		t.Fatal("TraceByID lookup failed")
	}
}

func TestDisabledTracerIsNoOp(t *testing.T) {
	tr := New(Config{})
	tr.SetEnabled(false)
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("disabled tracer must hand out nil spans")
	}
	// All nil-span methods must be safe.
	sp.SetAttr("a", "b")
	sp.SetError("boom")
	sp.StartChild("c", time.Now()).End()
	sp.End()
	if FromContext(ctx) != nil {
		t.Fatal("disabled Start must not plant a span in the context")
	}
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer is enabled?")
	}
	if _, sp := nilT.Start(context.Background(), "x"); sp != nil {
		t.Fatal("nil tracer returned a span")
	}
}

func TestRemoteContinuation(t *testing.T) {
	tr := New(Config{})
	upstream := NewTraceID()
	parent := NewSpanID()
	_, sp := tr.StartRemote(context.Background(), "handler", upstream, parent)
	if sp.TraceID() != upstream {
		t.Fatal("remote root must keep the upstream trace id")
	}
	sp.End()
	td := tr.Traces()[0]
	if !td.Remote || td.TraceID != upstream {
		t.Fatalf("remote trace not recorded: remote=%v id=%v", td.Remote, td.TraceID)
	}
	if td.Spans[0].ParentID != parent {
		t.Fatal("remote root must parent under the upstream span id")
	}
}

func TestTailSamplingKeepsErrorsAndSlow(t *testing.T) {
	tr := New(Config{Capacity: 512})
	for i := 0; i < 24; i++ {
		_, sp := tr.Start(context.Background(), "fast")
		sp.End()
	}
	_, esp := tr.Start(context.Background(), "failing")
	esp.SetError("boom")
	esp.End()
	_, ssp := tr.Start(context.Background(), "slow")
	time.Sleep(20 * time.Millisecond) // far beyond the ~µs fast roots
	ssp.End()

	// Every trace is kept: a failed root labels its trace "error", any
	// other trace, slow or fast, is "sampled".
	kept := map[string]string{}
	for _, td := range tr.Traces() {
		kept[td.Name] = td.KeepReason
	}
	if kept["failing"] != "error" {
		t.Fatalf("error trace kept as %q, want error", kept["failing"])
	}
	if kept["slow"] != "sampled" || kept["fast"] != "sampled" {
		t.Fatalf("slow/fast traces kept as %q/%q, want sampled", kept["slow"], kept["fast"])
	}
	if started, keptN := tr.Stats(); started != 26 || keptN != started {
		t.Fatalf("stats started=%d kept=%d", started, keptN)
	}
}

func TestMaxSpansBound(t *testing.T) {
	tr := New(Config{MaxSpans: 4})
	_, root := tr.Start(context.Background(), "root")
	for i := 0; i < 10; i++ {
		root.StartChild("c", time.Now()).End()
	}
	root.End()
	td := tr.Traces()[0]
	if len(td.Spans) != 4 {
		t.Fatalf("span cap not enforced: %d spans", len(td.Spans))
	}
	if td.DroppedSpans != 7 {
		// 10 children + 1 root = 11 ends, 4 stored.
		t.Fatalf("dropped %d spans, want 7", td.DroppedSpans)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "t")
		sp.End()
	}
	if n := len(tr.Traces()); n != 4 {
		t.Fatalf("ring holds %d, want 4", n)
	}
	tr.Reset()
	if len(tr.Traces()) != 0 {
		t.Fatal("Reset left traces behind")
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child")
	child.SetAttr("key", "value")
	child.SetError("oops")
	child.End()
	root.End()
	td := tr.Traces()[0]

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Traces()); err != nil {
		t.Fatal(err)
	}
	ct, err := ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
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
	tr := New(Config{})
	_, sp := tr.Start(context.Background(), "only")
	sp.End()
	path := t.TempDir() + "/trace.json"
	if err := WriteChromeFile(path, tr.Traces()); err != nil {
		t.Fatal(err)
	}
	f, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ParseChrome(bytes.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 1 || ct.TraceEvents[0].Name != "only" {
		t.Fatalf("file round trip lost events: %+v", ct.TraceEvents)
	}
}

func TestConcurrentTraces(t *testing.T) {
	tr := New(Config{Capacity: 256})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.Start(context.Background(), "req")
				_, c := tr.Start(ctx, "stage")
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	started, kept := tr.Stats()
	if started != 800 || kept != 800 {
		t.Fatalf("started=%d kept=%d, want 800/800", started, kept)
	}
	for _, td := range tr.Traces() {
		if len(td.Spans) != 2 {
			t.Fatalf("trace with %d spans, want 2", len(td.Spans))
		}
	}
}
