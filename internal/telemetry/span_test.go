package telemetry

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tracedSpans returns the records of r's only kept trace by name.
func tracedSpans(t *testing.T, r *Registry) map[string]SpanRecord {
	t.Helper()
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 kept trace, got %d", len(traces))
	}
	byName := map[string]SpanRecord{}
	for _, rec := range traces[0].Spans {
		byName[rec.Name] = rec
	}
	return byName
}

func TestStartTracedCtx(t *testing.T) {
	r := NewRegistry()
	ctx, rt := root(r, "root")

	sctx, stage := r.Start(ctx, "stage")
	stage.SetAttr("k", "v")
	_, inner := r.Start(sctx, "inner")
	inner.End()
	child := stage.Child("child")
	child.SetError("boom")
	child.End()
	d := stage.End()
	rt.End()

	byName := tracedSpans(t, r)
	if len(byName) != 4 {
		t.Fatalf("want root, stage, inner and stage/child, got %v", byName)
	}
	if byName["stage"].ParentID != rt.ID() {
		t.Fatal("stage must parent under the ctx's span")
	}
	if byName["inner"].ParentID != byName["stage"].SpanID {
		t.Fatal("a span started from stage's ctx must parent under stage")
	}
	if byName["stage/child"].ParentID != byName["stage"].SpanID {
		t.Fatal("Child must parent under the span it is called on")
	}
	if a := byName["stage"].Attrs; len(a) != 1 || a[0] != (Attr{Key: "k", Value: "v"}) {
		t.Fatalf("stage attrs = %v", a)
	}
	if byName["stage/child"].Error != "boom" {
		t.Fatalf("child error = %q", byName["stage/child"].Error)
	}
	// The aggregate and the trace record are one measurement.
	if got := time.Duration(byName["stage"].DurationNS); got != d || r.SpanStatFor("stage").Last() != d {
		t.Fatalf("trace duration %v, aggregate %v, End returned %v", got, r.SpanStatFor("stage").Last(), d)
	}
	if byName["stage"].StartUnixNS < byName["root"].StartUnixNS {
		t.Fatal("stage starts before its root")
	}
	// So are the root's.
	if got := r.SpanStatFor("root"); got == nil || got.Count() != 1 || int64(got.Last()) != byName["root"].DurationNS {
		t.Fatalf("root aggregate %v, trace record %d ns", got, byName["root"].DurationNS)
	}
}

func TestStartUntracedCtx(t *testing.T) {
	r := NewRegistry()
	ctx := context.Background()
	got, sp := r.Start(ctx, "stage")
	if got != ctx {
		t.Fatal("an untraced Start must return its ctx unchanged")
	}
	sp.SetAttr("k", "v")
	sp.Child("child").End()
	sp.End()
	if r.SpanStatFor("stage").Count() != 1 || r.SpanStatFor("stage/child").Count() != 1 {
		t.Fatal("untraced spans must still record the aggregate")
	}
	if started := r.tracesStarted.Load(); started != 0 || len(r.Traces()) != 0 {
		t.Fatalf("untraced spans started %d traces", started)
	}
	if sp.Traceparent() != "" || !sp.TraceID().IsZero() || FromContext(got) != nil {
		t.Fatal("an untraced span must carry no trace")
	}
}

// A second End records nothing: the aggregate counts the stage once
// and the trace holds one record of it.
func TestEndRecordsOnce(t *testing.T) {
	r := NewRegistry()
	ctx, rt := root(r, "root")
	_, sp := r.Start(ctx, "stage")
	if d := sp.End(); d <= 0 {
		t.Fatalf("first End returned %v", d)
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("second End returned %v, want 0", d)
	}
	rt.End()
	rt.End()

	snap := r.Snapshot()
	if c := snap.Spans["stage"].Count; c != 1 {
		t.Fatalf("stage counted %d times, want 1", c)
	}
	if c := snap.Spans["root"].Count; c != 1 {
		t.Fatalf("root counted %d times, want 1", c)
	}
	traces := r.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 2 || traces[0].DroppedSpans != 0 {
		t.Fatalf("want one trace of 2 records, got %d traces %+v", len(traces), traces)
	}
}

// flagsRun runs one command's worth of work between Flags.Start and its
// stop on a fresh default registry: a root span with one stage under it.
func flagsRun(t *testing.T, f *Flags) {
	t.Helper()
	prev := SetDefault(NewRegistry())
	t.Cleanup(func() { SetDefault(prev) })
	Default().SetEnabled(false)

	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	ctx, rt := Default().StartTrace(context.Background(), "cli-op", "")
	_, sp := Default().Start(ctx, "stage")
	sp.End()
	rt.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsStartStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	flagsRun(t, &Flags{LogLevel: "error", TraceOut: path})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct := parseChrome(t, b)
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		names[ev.Name] = true
	}
	if len(ct.TraceEvents) != 2 || !names["cli-op"] || !names["stage"] {
		t.Fatalf("flag-driven export wrong: %+v", ct.TraceEvents)
	}

	// No output flag: the registry stays off and no root opens.
	flagsRun(t, &Flags{LogLevel: "error"})
	if Default().Enabled() || len(Default().Traces()) != 0 {
		t.Fatal("Start without output flags enabled the registry")
	}
}

// The command's root reaches -metrics-out, with the same duration its
// -trace-out record has.
func TestFlagsMetricsOutListsRoot(t *testing.T) {
	dir := t.TempDir()
	mpath, tpath := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	flagsRun(t, &Flags{LogLevel: "error", MetricsOut: mpath, TraceOut: tpath})
	f, err := os.Open(mpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	events := parseChrome(t, b).TraceEvents
	if len(events) != 2 {
		t.Fatalf("trace file holds %d events, want cli-op and stage", len(events))
	}
	for _, ev := range events {
		st, ok := snap.Spans[ev.Name]
		if !ok || st.Count != 1 {
			t.Fatalf("-metrics-out spans %v lack %s", snap.SpanPaths(), ev.Name)
		}
		if float64(st.LastNS)/1e3 != ev.Dur {
			t.Fatalf("%s: -metrics-out says %d ns, -trace-out %v µs", ev.Name, st.LastNS, ev.Dur)
		}
	}
}
