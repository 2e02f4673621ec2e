package parallel

import (
	"context"
	"strconv"
	"testing"

	"fillvoid/internal/telemetry"
)

// Concurrent traced requests each fan out through ForChunkedCtx; every
// worker and chunk span must land in its own request's tree, under that
// request's root. Run under -race this also checks the span handoff to
// the worker goroutines.
func TestTracedFanOutStaysInOwnTree(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	const requests, workers, n = 16, 4, 1000
	For(requests, requests, func(i int) {
		ctx, root := reg.StartTrace(context.Background(), "request", "")
		err := ForChunkedCtx(ctx, n, workers, func(start, end int) error { return nil })
		if err != nil {
			t.Error(err)
		}
		root.End()
	})

	traces := reg.Traces()
	if len(traces) != requests {
		t.Fatalf("kept %d traces, want %d", len(traces), requests)
	}
	for _, td := range traces {
		byID := map[telemetry.SpanID]telemetry.SpanRecord{}
		for _, rec := range td.Spans {
			byID[rec.SpanID] = rec
		}
		var nWorkers, covered int
		for _, rec := range td.Spans {
			switch rec.Name {
			case "request":
				if rec.SpanID != td.RootID {
					t.Fatal("request span is not its trace's root")
				}
			case "parallel/worker":
				nWorkers++
				if rec.ParentID != td.RootID {
					t.Fatalf("worker parent %s is not the trace root", rec.ParentID)
				}
			case "parallel/chunk":
				if p, ok := byID[rec.ParentID]; !ok || p.Name != "parallel/worker" {
					t.Fatalf("chunk parent %s is not a worker of its own trace", rec.ParentID)
				}
				attr := map[string]int{}
				for _, a := range rec.Attrs {
					v, err := strconv.Atoi(a.Value)
					if err != nil {
						t.Fatal(err)
					}
					attr[a.Key] = v
				}
				covered += attr["end"] - attr["start"]
			default:
				t.Fatalf("unexpected span %q", rec.Name)
			}
		}
		if nWorkers != workers || covered != n {
			t.Fatalf("trace has %d workers covering %d indices, want %d covering %d", nWorkers, covered, workers, n)
		}
	}
}
