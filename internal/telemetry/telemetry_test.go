package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := r.Gauge("load")
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	want := float64(workers*perWorker) * 0.5
	if got := r.Gauge("load").Value(); got != want {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
	r.Gauge("load").Set(-3)
	if got := r.Gauge("load").Value(); got != -3 {
		t.Fatalf("gauge after Set = %g", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 10, 100}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("lat", bounds)
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w%4) * 40) // 0, 40, 80, 120
			}
		}(w)
	}
	wg.Wait()
	h := r.Histogram("lat", nil)
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var sum int64
	for _, c := range h.BucketCounts() {
		sum += c
	}
	if sum != workers*perWorker {
		t.Fatalf("bucket counts sum to %d, want %d", sum, workers*perWorker)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1000} {
		h.Observe(v)
	}
	// <=1: {0.5, 1}; <=10: {5, 10}; <=100: {50, 100}; +Inf: {1000}
	want := []int64{2, 2, 2, 1}
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if got, want := h.Sum(), 0.5+1+5+10+50+100+1000; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestDisabledRegistryHandsOutNoOps(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	if c := r.Counter("c"); c != nil {
		t.Fatal("disabled registry returned a live counter")
	}
	if g := r.Gauge("g"); g != nil {
		t.Fatal("disabled registry returned a live gauge")
	}
	if h := r.Histogram("h", nil); h != nil {
		t.Fatal("disabled registry returned a live histogram")
	}
	if ctx, sp := r.Start(context.Background(), "s"); sp != nil || ctx != context.Background() {
		t.Fatal("disabled registry returned a live span")
	}
	if ctx, sp := r.StartTrace(context.Background(), "s", ""); sp != nil || ctx != context.Background() {
		t.Fatal("disabled registry returned a live trace root")
	}
	if tr := r.Train("t"); tr != nil {
		t.Fatal("disabled registry returned a live train series")
	}
	// All nil handles must be usable without branching.
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		sp *Span
		tr *TrainSeries
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	sp.Child("x").End()
	sp.SetAttr("a", "b")
	sp.SetError("boom")
	tr.ObserveEpoch(EpochStat{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sp.End() != 0 || tr.Epochs() != nil {
		t.Fatal("nil handles reported non-zero state")
	}
	if sp.Path() != "" || !sp.ID().IsZero() || !sp.TraceID().IsZero() || sp.Traceparent() != "" {
		t.Fatal("nil span reported an identity")
	}
	// Nothing may have been registered.
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans)+len(s.Training) != 0 {
		t.Fatalf("disabled registry accumulated state: %+v", s)
	}
	if len(r.Traces()) != 0 || r.tracesStarted.Load() != 0 {
		t.Fatal("disabled registry started a trace")
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	root := span(r, "pretrain")
	child := root.Child("feature-build")
	grand := child.Child("knn")
	if got := grand.Path(); got != "pretrain/feature-build/knn" {
		t.Fatalf("path = %q", got)
	}
	grand.End()
	child.End()
	if d := root.End(); d <= 0 {
		t.Fatalf("root duration = %v", d)
	}
	for _, path := range []string{"pretrain", "pretrain/feature-build", "pretrain/feature-build/knn"} {
		st := r.SpanStatFor(path)
		if st == nil {
			t.Fatalf("no stats recorded for %q", path)
		}
		if st.Count() != 1 {
			t.Fatalf("%q count = %d", path, st.Count())
		}
		if st.Total() <= 0 || st.Last() != st.Total() {
			t.Fatalf("%q total=%v last=%v", path, st.Total(), st.Last())
		}
	}
	// A second completion under the same path aggregates.
	span(r, "pretrain").End()
	if got := r.SpanStatFor("pretrain").Count(); got != 2 {
		t.Fatalf("aggregated count = %d", got)
	}
}

func TestSpanConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				span(r, "stage").Child("inner").End()
			}
		}()
	}
	wg.Wait()
	if got := r.SpanStatFor("stage/inner").Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

func TestTrainSeries(t *testing.T) {
	r := NewRegistry()
	tr := r.Train("pretrain")
	for e := 0; e < 5; e++ {
		tr.ObserveEpoch(EpochStat{Epoch: e, Loss: 1 / float64(e+1)})
	}
	eps := tr.Epochs()
	if len(eps) != 5 {
		t.Fatalf("epochs = %d", len(eps))
	}
	for i, e := range eps {
		if e.Epoch != i {
			t.Fatalf("epoch %d has index %d", i, e.Epoch)
		}
	}
	if r.Train("pretrain") != tr {
		t.Fatal("same name returned a different series")
	}
	if tr.Name() != "pretrain" {
		t.Fatalf("name = %q", tr.Name())
	}
}

func TestMultiObserverAndObserverFunc(t *testing.T) {
	var a, b []int
	m := MultiObserver{
		ObserverFunc(func(e EpochStat) { a = append(a, e.Epoch) }),
		nil, // nils must be skipped
		ObserverFunc(func(e EpochStat) { b = append(b, e.Epoch) }),
	}
	m.ObserveEpoch(EpochStat{Epoch: 7})
	if len(a) != 1 || len(b) != 1 || a[0] != 7 || b[0] != 7 {
		t.Fatalf("fan-out failed: a=%v b=%v", a, b)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(42)
	r.Gauge("util").Set(0.75)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	span(r, "stage").End()
	r.Train("fit").ObserveEpoch(EpochStat{Epoch: 0, Loss: 0.5, LearningRate: 1e-3, Examples: 100, TrainableParams: 10, DurationNS: 5})

	s := r.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mismatch:\n  out: %+v\n  in:  %+v", s, back)
	}
	if back.Counters["reqs"] != 42 {
		t.Fatalf("counter = %d", back.Counters["reqs"])
	}
	if back.Gauges["util"] != 0.75 {
		t.Fatalf("gauge = %g", back.Gauges["util"])
	}
	if hs := back.Histograms["lat"]; hs.Count != 3 || hs.Sum != 55.5 {
		t.Fatalf("histogram = %+v", hs)
	}
	if got := back.SpanPaths(); !reflect.DeepEqual(got, []string{"stage"}) {
		t.Fatalf("span paths = %v", got)
	}
	if eps := back.Training["fit"]; len(eps) != 1 || eps[0].Loss != 0.5 {
		t.Fatalf("training = %+v", back.Training)
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("snapshot file is not valid JSON: %v", err)
	}
	if s.Counters["c"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
}

func TestResetKeepsEnabledState(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Reset()
	if !r.Enabled() {
		t.Fatal("Reset flipped enabled off")
	}
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("counter survived Reset: %d", got)
	}
}

func TestSetDefaultSwap(t *testing.T) {
	old := Default()
	mine := NewRegistry()
	if prev := SetDefault(mine); prev != old {
		t.Fatal("SetDefault returned wrong previous registry")
	}
	defer SetDefault(old)
	if Default() != mine {
		t.Fatal("Default not swapped")
	}
	if prev := SetDefault(nil); prev != mine {
		t.Fatal("SetDefault(nil) must be a no-op returning the current registry")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "Error": LevelError, "off": LevelOff,
		"none": LevelOff, " silent ": LevelOff,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("accepted bogus level")
	}
}

func TestLoggerFormatAndThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debugf("hidden")
	l.Infof("pretrain done", "rows", 42, "note", "two words")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug leaked through info threshold: %q", out)
	}
	line := strings.TrimSpace(out)
	for _, want := range []string{"level=info", `msg="pretrain done"`, "rows=42", `note="two words"`, "t="} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}
	l.SetLevel(LevelOff)
	buf.Reset()
	l.Errorf("also hidden")
	if buf.Len() != 0 {
		t.Fatalf("LevelOff still logged: %q", buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(9)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var s Snapshot
	if err := json.Unmarshal(get("/metrics"), &s); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if s.Counters["hits"] != 9 {
		t.Fatalf("/metrics counters = %v", s.Counters)
	}
	var vars map[string]any
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["fillvoid.telemetry"]; !ok {
		t.Fatal("/debug/vars missing fillvoid.telemetry")
	}
	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestFlagsStartWritesSnapshot(t *testing.T) {
	old := SetDefault(NewRegistry())
	defer SetDefault(old)
	Default().SetEnabled(false)

	path := filepath.Join(t.TempDir(), "metrics.json")
	f := &Flags{LogLevel: "error", MetricsOut: path}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !Default().Enabled() {
		t.Fatal("-metrics-out did not enable the default registry")
	}
	Default().Counter("work").Add(3)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["work"] != 3 {
		t.Fatalf("snapshot counters = %v", s.Counters)
	}
}

func TestFlagsRejectBadLevel(t *testing.T) {
	f := &Flags{LogLevel: "shout"}
	if _, err := f.Start(); err == nil {
		t.Fatal("accepted bogus log level")
	}
}

func TestSnapshotWhileHammered(t *testing.T) {
	r := NewRegistry()
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				r.Counter(fmt.Sprintf("c%d", w%2)).Inc()
				r.Histogram("h", nil).Observe(float64(i % 7))
				span(r, "s").End()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		if s.Histograms["h"].Count < 0 {
			t.Fatal("negative count")
		}
	}
	close(stopCh)
	wg.Wait()
	s := r.Snapshot()
	var bucketSum int64
	for _, c := range s.Histograms["h"].Counts {
		bucketSum += c
	}
	if bucketSum != s.Histograms["h"].Count {
		t.Fatalf("final buckets %d != count %d", bucketSum, s.Histograms["h"].Count)
	}
	if math.IsNaN(s.Histograms["h"].Sum) {
		t.Fatal("NaN sum")
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("hot").Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(false)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := r.Start(ctx, "hot")
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		span(r, "hot").End()
	}
}

// BenchmarkSpanTraced is a span started from a ctx carrying a live
// trace: the aggregate plus a child record in the trace. A trace keeps
// at most maxTraceSpans records, so the benchmark ends its root and
// opens a fresh one that often; every span it times appends a record.
func BenchmarkSpanTraced(b *testing.B) {
	r := NewRegistry()
	ctx, rt := root(r, "root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(maxTraceSpans-1) == 0 {
			rt.End()
			ctx, rt = root(r, "root")
		}
		_, sp := r.Start(ctx, "hot")
		sp.End()
	}
	b.StopTimer()
	rt.End()
}

// span starts a span with no trace, for tests about the aggregate.
func span(r *Registry, path string) *Span {
	_, sp := r.Start(context.Background(), path)
	return sp
}

// Keep package-level log lines out of test output.
func TestMain(m *testing.M) {
	SetLogOutput(io.Discard)
	os.Exit(m.Run())
}

type failWriter struct{ fails int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.fails > 0 {
		w.fails--
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestLoggerCountsDroppedWrites(t *testing.T) {
	w := &failWriter{fails: 2}
	l := NewLogger(w, LevelInfo)
	l.Infof("one")
	l.Infof("two")
	l.Infof("three")
	if got := l.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
}
