package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"fillvoid/internal/telemetry"
)

// postTraced posts a reconstruct request with an optional traceparent
// header and returns the full response for header inspection.
func postTraced(t *testing.T, url string, body any, traceparent string) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestTraceparentRoundTripAndDebugTraces(t *testing.T) {
	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{Telemetry: tel})

	upstream := telemetry.NewTraceID()
	parentSpan := telemetry.NewSpanID()
	reqBody := &ReconstructRequest{
		Method: "linear",
		Cloud:  testCloud(200, 7),
		Grid:   testGrid(),
	}
	resp := postTraced(t, base+"/v1/reconstruct", reqBody,
		telemetry.FormatTraceparent(upstream, parentSpan, true))
	io.Copy(io.Discard, resp.Body) //lint:allow errdrop: draining a test response body
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The response must continue OUR trace, not invent a new one.
	tp := resp.Header.Get("traceparent")
	gotTID, _, _, err := telemetry.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if gotTID != upstream {
		t.Fatalf("response trace id %s, want %s", gotTID, upstream)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response missing X-Request-ID")
	}

	// The completed trace is in the ring, marked remote, with the
	// handler root parented under the upstream span.
	td := tel.TraceByID(upstream)
	if td == nil {
		t.Fatal("trace not kept in ring")
	}
	if !td.Remote {
		t.Fatal("continued trace must be marked remote")
	}
	names := map[string]telemetry.SpanRecord{}
	for _, sp := range td.Spans {
		names[sp.Name] = sp
	}
	root, ok := names["server/reconstruct"]
	if !ok {
		t.Fatalf("no server root span; spans: %v", spanNames(td))
	}
	if root.ParentID != parentSpan {
		t.Fatal("server root must parent under the upstream span id")
	}
	// Spans carried on the request ctx through the parallel fan-out
	// must give at least 4 nesting levels: server root -> recon/execute
	// -> parallel/worker -> parallel/chunk.
	depth := maxDepth(td)
	if depth < 4 {
		t.Fatalf("trace depth %d, want >= 4; spans: %v", depth, spanNames(td))
	}
	if _, ok := names["server/plan-cache"]; !ok {
		t.Fatalf("no plan-cache span; spans: %v", spanNames(td))
	}
	if _, ok := names["recon/execute"]; !ok {
		t.Fatalf("execute span missing; spans: %v", spanNames(td))
	}

	// /debug/traces serves the ring: the index lists the trace, and the
	// id= form returns loadable Chrome trace-event JSON.
	var idx struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			TraceID string `json:"trace_id"`
		} `json:"traces"`
	}
	resp2, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range idx.Traces {
		if row.TraceID == upstream.String() {
			found = true
		}
	}
	if !idx.Enabled || !found {
		t.Fatalf("/debug/traces index enabled=%v missing trace %s", idx.Enabled, upstream)
	}
	resp3, err := http.Get(base + "/debug/traces?id=" + upstream.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var ct telemetry.ChromeTrace
	if err := json.NewDecoder(resp3.Body).Decode(&ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != len(td.Spans) {
		t.Fatalf("chrome export has %d events, trace has %d spans", len(ct.TraceEvents), len(td.Spans))
	}
}

// Two servers in one process, each with its own registry: each server's
// request tree must hold the engine stages its request ran, with
// recon/execute between the root and the parallel workers.
func TestTwoServersKeepOwnTraceTrees(t *testing.T) {
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	var bases []string
	for _, tel := range regs {
		_, base := startServer(t, Config{Telemetry: tel})
		bases = append(bases, base)
	}
	for i, tel := range regs {
		resp := postTraced(t, bases[i]+"/v1/reconstruct", &ReconstructRequest{
			Method: "linear",
			Cloud:  testCloud(200, 7),
			Grid:   testGrid(),
		}, "")
		io.Copy(io.Discard, resp.Body) //lint:allow errdrop: draining a test response body
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d", i, resp.StatusCode)
		}
		tid, _, _, err := telemetry.ParseTraceparent(resp.Header.Get("traceparent"))
		if err != nil {
			t.Fatal(err)
		}
		td := tel.TraceByID(tid)
		if td == nil {
			t.Fatalf("server %d kept no trace for its request", i)
		}
		if depth := maxDepth(td); depth < 4 {
			t.Fatalf("server %d: trace depth %d, want >= 4; spans: %v", i, depth, spanNames(td))
		}
		byID := map[telemetry.SpanID]telemetry.SpanRecord{}
		for _, sp := range td.Spans {
			byID[sp.SpanID] = sp
		}
		workers := 0
		for _, sp := range td.Spans {
			if sp.Name != "parallel/worker" {
				continue
			}
			workers++
			if p := byID[sp.ParentID]; p.Name != "recon/execute" {
				t.Fatalf("server %d: parallel/worker hangs off %q, want recon/execute", i, p.Name)
			}
		}
		if workers == 0 {
			t.Fatalf("server %d: no parallel/worker span; spans: %v", i, spanNames(td))
		}
	}
}

// spanNames lists a trace's span names for failure messages.
func spanNames(td *telemetry.TraceData) []string {
	var out []string
	for _, sp := range td.Spans {
		out = append(out, sp.Name)
	}
	return out
}

// maxDepth computes the deepest parent chain in a telemetry.
func maxDepth(td *telemetry.TraceData) int {
	depthOf := map[telemetry.SpanID]int{}
	byID := map[telemetry.SpanID]telemetry.SpanRecord{}
	for _, sp := range td.Spans {
		byID[sp.SpanID] = sp
	}
	var walk func(id telemetry.SpanID) int
	walk = func(id telemetry.SpanID) int {
		if d, ok := depthOf[id]; ok {
			return d
		}
		sp, ok := byID[id]
		if !ok {
			return 0 // parent outside this process (remote) or dropped
		}
		depthOf[id] = 1 // break cycles defensively
		d := 1 + walk(sp.ParentID)
		depthOf[id] = d
		return d
	}
	max := 0
	for id := range byID {
		if d := walk(id); d > max {
			max = d
		}
	}
	return max
}

func TestFreshTraceWithoutTraceparent(t *testing.T) {
	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{Telemetry: tel})
	resp := postTraced(t, base+"/v1/reconstruct", &ReconstructRequest{
		Method: "nearest",
		Cloud:  testCloud(50, 3),
		Grid:   testGrid(),
	}, "")
	io.Copy(io.Discard, resp.Body) //lint:allow errdrop: draining a test response body
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	tid, _, _, err := telemetry.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("no valid traceparent on response: %q %v", tp, err)
	}
	td := tel.TraceByID(tid)
	if td == nil {
		t.Fatal("fresh trace not kept")
	}
	if td.Remote {
		t.Fatal("locally rooted trace must not be marked remote")
	}
}

func TestErrorResponseCarriesRequestID(t *testing.T) {
	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{Telemetry: tel})
	resp := postTraced(t, base+"/v1/reconstruct", map[string]any{"method": "no-such"}, "")
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var er struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID == "" {
		t.Fatalf("error body missing request_id: %s", body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != er.RequestID {
		t.Fatalf("request id mismatch: header %q body %q", got, er.RequestID)
	}
	// Error traces are always kept by the tail sampler, with the
	// failure recorded on the root span.
	var errTrace *telemetry.TraceData
	for _, td := range tel.Traces() {
		if td.Error != "" {
			errTrace = td
		}
	}
	if errTrace == nil {
		t.Fatal("failed request left no error trace")
	}
	if errTrace.KeepReason != "error" {
		t.Fatalf("error trace kept as %q", errTrace.KeepReason)
	}
}

func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	telemetry.SetLogOutput(&buf)
	defer telemetry.SetLogOutput(os.Stderr)
	telemetry.SetLogLevel(telemetry.LevelInfo)
	defer telemetry.SetLogLevel(telemetry.LevelWarn)

	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{Telemetry: tel})
	resp := postTraced(t, base+"/v1/reconstruct", &ReconstructRequest{
		Method: "nearest",
		Cloud:  testCloud(50, 11),
		Grid:   testGrid(),
	}, "")
	io.Copy(io.Discard, resp.Body) //lint:allow errdrop: draining a test response body
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	log := buf.String()
	var line string
	for _, l := range strings.Split(log, "\n") {
		if strings.Contains(l, "route=\"POST /v1/reconstruct\"") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no access log line for reconstruct in:\n%s", log)
	}
	reqID := resp.Header.Get("X-Request-ID")
	for _, want := range []string{
		"request_id=" + reqID,
		"status=200",
		"bytes=",
		"duration_ms=",
		"trace_id=",
		"plan_cache=",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log line missing %q:\n%s", want, line)
		}
	}

	// Error requests log at warn with the error message.
	buf.Reset()
	resp2 := postTraced(t, base+"/v1/reconstruct", map[string]any{"method": "no-such"}, "")
	io.Copy(io.Discard, resp2.Body) //lint:allow errdrop: draining a test response body
	warnLog := buf.String()
	if !strings.Contains(warnLog, "status=400") || !strings.Contains(warnLog, "error=") {
		t.Fatalf("no warn access log for failed request:\n%s", warnLog)
	}
}

// One request, one clock: the access log's duration_ms, the last_ns of
// the server/reconstruct span in /metrics and the trace root's
// duration_ns are the same measurement.
func TestOneRequestOneClock(t *testing.T) {
	var buf bytes.Buffer
	telemetry.SetLogOutput(&buf)
	defer telemetry.SetLogOutput(os.Stderr)
	telemetry.SetLogLevel(telemetry.LevelInfo)
	defer telemetry.SetLogLevel(telemetry.LevelWarn)

	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{Telemetry: tel})
	resp := postTraced(t, base+"/v1/reconstruct", &ReconstructRequest{
		Method: "nearest",
		Cloud:  testCloud(50, 5),
		Grid:   testGrid(),
	}, "")
	io.Copy(io.Discard, resp.Body) //lint:allow errdrop: draining a test response body
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var logged float64 = -1
	for _, field := range strings.Fields(buf.String()) {
		if v, ok := strings.CutPrefix(field, "duration_ms="); ok {
			var err error
			if logged, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if logged < 0 {
		t.Fatalf("no duration_ms in the access log:\n%s", buf.String())
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	snap, err := telemetry.ReadSnapshot(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := snap.Spans["server/reconstruct"]
	if !ok || st.Count != 1 {
		t.Fatalf("/metrics spans %v: want server/reconstruct once", snap.SpanPaths())
	}

	tid, _, _, err := telemetry.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}
	td := tel.TraceByID(tid)
	if td == nil {
		t.Fatal("request trace not kept")
	}
	if td.DurationNS != st.LastNS || logged != float64(st.LastNS)/float64(time.Millisecond) {
		t.Fatalf("three clocks: access log %v ms, /metrics %d ns, trace root %d ns", logged, st.LastNS, td.DurationNS)
	}
}
