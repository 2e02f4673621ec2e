package telemetry

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fillvoid/internal/trace"
)

// tracedSpans returns the records of tr's only kept trace by name.
func tracedSpans(t *testing.T, tr *trace.Tracer) map[string]trace.SpanRecord {
	t.Helper()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("want 1 kept trace, got %d", len(traces))
	}
	byName := map[string]trace.SpanRecord{}
	for _, rec := range traces[0].Spans {
		byName[rec.Name] = rec
	}
	return byName
}

func TestStartTracedCtx(t *testing.T) {
	r := NewRegistry()
	tr := trace.New(trace.Config{})
	ctx, root := tr.Start(context.Background(), "root")

	sctx, stage := r.Start(ctx, "stage")
	stage.SetAttr("k", "v")
	_, inner := r.Start(sctx, "inner")
	inner.End()
	child := stage.Child("child")
	child.SetError("boom")
	child.End()
	d := stage.End()
	root.End()

	byName := tracedSpans(t, tr)
	if len(byName) != 4 {
		t.Fatalf("want root, stage, inner and stage/child, got %v", byName)
	}
	if byName["stage"].ParentID != root.ID() {
		t.Fatal("stage must parent under the ctx's span")
	}
	if byName["inner"].ParentID != byName["stage"].SpanID {
		t.Fatal("a span started from stage's ctx must parent under stage")
	}
	if byName["stage/child"].ParentID != byName["stage"].SpanID {
		t.Fatal("Child must parent under the span it is called on")
	}
	if a := byName["stage"].Attrs; len(a) != 1 || a[0] != (trace.Attr{Key: "k", Value: "v"}) {
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
}

func TestStartUntracedCtx(t *testing.T) {
	r := NewRegistry()
	tr := trace.New(trace.Config{})
	prev := trace.SetDefault(tr)
	defer trace.SetDefault(prev)

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
	if started, _ := tr.Stats(); started != 0 || len(tr.Traces()) != 0 {
		t.Fatalf("untraced spans started %d traces", started)
	}
}

func TestFlagsStartStop(t *testing.T) {
	prevReg := SetDefault(NewRegistry())
	defer SetDefault(prevReg)
	Default().SetEnabled(false)
	prevTr := trace.New(trace.Config{})
	prevTr.SetEnabled(false)
	prev := trace.SetDefault(prevTr)
	defer trace.SetDefault(prev)

	path := filepath.Join(t.TempDir(), "out.json")
	f := &Flags{LogLevel: "error", TraceOut: path}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := trace.Default().Start(context.Background(), "cli-op")
	_, sp := Default().Start(ctx, "stage")
	sp.End()
	root.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.ParseChrome(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		names[ev.Name] = true
	}
	if len(ct.TraceEvents) != 2 || !names["cli-op"] || !names["stage"] {
		t.Fatalf("flag-driven export wrong: %+v", ct.TraceEvents)
	}

	// No -trace-out: start/stop are no-ops.
	none := Flags{LogLevel: "error"}
	stop, err = none.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
