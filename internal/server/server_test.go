package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fillvoid/internal/grid"
	"fillvoid/internal/interp"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/telemetry"
)

// testCloud builds a deterministic synthetic cloud inside the unit cube.
func testCloud(n int, seed int64) *CloudJSON {
	rng := rand.New(rand.NewSource(seed))
	cj := &CloudJSON{Name: "pressure"}
	for i := 0; i < n; i++ {
		x, y, z := rng.Float64(), rng.Float64(), rng.Float64()
		cj.Points = append(cj.Points, [3]float64{x, y, z})
		cj.Values = append(cj.Values, x+2*y-z)
	}
	return cj
}

func testGrid() GridJSON {
	sp := [3]float64{1.0 / 15, 1.0 / 15, 1.0 / 7}
	return GridJSON{Dims: [3]int{16, 16, 8}, Spacing: &sp}
}

// startServer boots a Server on an ephemeral port with an isolated
// telemetry registry and tears it down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = interp.StandardRegistry(2)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, "http://" + s.Addr()
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// stubRecon is a scriptable reconstructor for admission/cancellation
// tests.
type stubRecon struct {
	name string
	fn   func(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error
}

func (s *stubRecon) Name() string { return s.name }
func (s *stubRecon) Reconstruct(c *pointcloud.Cloud, spec recon.GridSpec) (*grid.Volume, error) {
	return recon.ReconstructCloud(context.Background(), s, c, spec)
}
func (s *stubRecon) ReconstructRegion(ctx context.Context, p *recon.Plan, region recon.Region, dst []float64) error {
	return s.fn(ctx, p, region, dst)
}

// TestConcurrentROIRequestsShareOnePlan is the acceptance load test: 32
// concurrent sub-box queries against one uploaded cloud must all
// succeed, share a single cached plan (hits > misses, exactly one
// miss), and leave the admission counters clean. Run under -race.
func TestConcurrentROIRequestsShareOnePlan(t *testing.T) {
	tel := telemetry.NewRegistry()
	s, base := startServer(t, Config{Telemetry: tel})

	code, body := postJSON(t, base+"/v1/clouds", testCloud(400, 1))
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	var up UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}

	// Warm the plan with one full-grid query.
	warm := ReconstructRequest{Method: "nearest", CloudID: up.CloudID, Grid: testGrid()}
	if code, body := postJSON(t, base+"/v1/reconstruct", warm); code != http.StatusOK {
		t.Fatalf("warm query: %d %s", code, body)
	}

	const clients = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	var notCached atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			i0 := i % 8
			req := ReconstructRequest{
				Method:  "nearest",
				CloudID: up.CloudID,
				Grid:    testGrid(),
				Region:  RegionJSON{Box: &[6]int{i0, 0, 0, i0 + 8, 8, 4}},
			}
			b, _ := json.Marshal(req)
			resp, err := http.Post(base+"/v1/reconstruct", "application/json", bytes.NewReader(b))
			if err != nil {
				failures.Add(1)
				return
			}
			defer resp.Body.Close()
			var rr ReconstructResponse
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&rr) != nil {
				failures.Add(1)
				return
			}
			if len(rr.Values) != 8*8*4 || rr.Dims != [3]int{8, 8, 4} {
				failures.Add(1)
				return
			}
			if !rr.PlanCached {
				notCached.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent ROI requests failed", n, clients)
	}
	if n := notCached.Load(); n > 0 {
		t.Fatalf("%d requests missed the warmed plan", n)
	}
	hits := tel.Counter("server.plan_cache.hits").Value()
	misses := tel.Counter("server.plan_cache.misses").Value()
	if misses != 1 {
		t.Fatalf("plan cache misses = %d, want 1", misses)
	}
	if hits <= misses {
		t.Fatalf("plan cache hits %d not > misses %d", hits, misses)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight count %d after drain", got)
	}
	var roots int64
	if st := tel.SpanStatFor("server/reconstruct"); st != nil {
		roots = st.Count()
	}
	if roots != int64(clients)+1 {
		t.Fatalf("server/reconstruct span ended %d times, want %d", roots, clients+1)
	}
}

// TestROIMatchesFullGrid checks a served sub-box equals the same box of
// a served full grid (the engine guarantees bit-identity; the HTTP
// layer must preserve it).
func TestROIMatchesFullGrid(t *testing.T) {
	_, base := startServer(t, Config{})
	cloud := testCloud(200, 2)

	full := ReconstructRequest{Method: "shepard", Cloud: cloud, Grid: testGrid()}
	code, body := postJSON(t, base+"/v1/reconstruct", full)
	if code != http.StatusOK {
		t.Fatalf("full: %d %s", code, body)
	}
	var fullResp ReconstructResponse
	if err := json.Unmarshal(body, &fullResp); err != nil {
		t.Fatal(err)
	}

	box := [6]int{3, 2, 1, 11, 10, 5}
	roi := ReconstructRequest{Method: "shepard", CloudID: fullResp.CloudID, Grid: testGrid(),
		Region: RegionJSON{Box: &box}}
	code, body = postJSON(t, base+"/v1/reconstruct", roi)
	if code != http.StatusOK {
		t.Fatalf("roi: %d %s", code, body)
	}
	var roiResp ReconstructResponse
	if err := json.Unmarshal(body, &roiResp); err != nil {
		t.Fatal(err)
	}
	if !roiResp.PlanCached {
		t.Fatal("ROI against just-queried cloud did not hit the plan cache")
	}
	nx, ny := 16, 16
	for m, v := range roiResp.Values {
		w, h := box[3]-box[0], box[4]-box[1]
		i := box[0] + m%w
		j := box[1] + (m/w)%h
		k := box[2] + m/(w*h)
		if fv := fullResp.Values[i+nx*(j+ny*k)]; fv != v {
			t.Fatalf("roi[%d] = %g, full grid (%d,%d,%d) = %g", m, v, i, j, k, fv)
		}
	}
}

// TestPointQueries exercises the point-list region path end to end.
func TestPointQueries(t *testing.T) {
	_, base := startServer(t, Config{})
	req := ReconstructRequest{
		Method: "nearest",
		Cloud:  testCloud(100, 3),
		Grid:   testGrid(),
		Region: RegionJSON{Points: [][3]float64{{0.1, 0.2, 0.3}, {0.9, 0.8, 0.7}, {0.5, 0.5, 0.5}}},
	}
	code, body := postJSON(t, base+"/v1/reconstruct", req)
	if code != http.StatusOK {
		t.Fatalf("points: %d %s", code, body)
	}
	var resp ReconstructResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 3 || resp.Dims != [3]int{3, 1, 1} {
		t.Fatalf("point query shape: %+v", resp.Dims)
	}
}

// TestAdmissionBackpressure pins the semaphore + bounded queue: with
// one slot and a one-deep queue, a second request waits (503 on queue
// timeout) and a third is rejected immediately with 429.
func TestAdmissionBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	unblock := make(chan struct{})
	reg := recon.NewRegistry()
	reg.RegisterMethod(&stubRecon{name: "block", fn: func(ctx context.Context, _ *recon.Plan, _ recon.Region, dst []float64) error {
		started <- struct{}{}
		select {
		case <-unblock:
		case <-ctx.Done():
			return ctx.Err()
		}
		for i := range dst {
			dst[i] = 1
		}
		return nil
	}})
	s, base := startServer(t, Config{
		Registry:      reg,
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  150 * time.Millisecond,
	})
	req := ReconstructRequest{Method: "block", Cloud: testCloud(20, 4), Grid: GridJSON{Dims: [3]int{4, 4, 2}}}

	// A: takes the only slot.
	aDone := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, base+"/v1/reconstruct", req)
		aDone <- code
	}()
	<-started

	// B: queues, then times out with 503.
	bDone := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, base+"/v1/reconstruct", req)
		bDone <- code
	}()
	// Wait until B occupies the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// C: queue full, immediate 429.
	code, body := postJSON(t, base+"/v1/reconstruct", req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", code, body)
	}

	if code := <-bDone; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: %d, want 503", code)
	}
	close(unblock)
	if code := <-aDone; code != http.StatusOK {
		t.Fatalf("first request: %d, want 200", code)
	}
}

// TestClientCancelStopsEngine checks that a client disconnect reaches
// the reconstructor's context and stops engine work early.
func TestClientCancelStopsEngine(t *testing.T) {
	started := make(chan struct{}, 1)
	sawCancel := make(chan error, 1)
	reg := recon.NewRegistry()
	reg.RegisterMethod(&stubRecon{name: "wait", fn: func(ctx context.Context, _ *recon.Plan, _ recon.Region, dst []float64) error {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			sawCancel <- ctx.Err()
			return ctx.Err()
		case <-time.After(10 * time.Second):
			sawCancel <- nil
			return nil
		}
	}})
	_, base := startServer(t, Config{Registry: reg})

	body, _ := json.Marshal(ReconstructRequest{Method: "wait", Cloud: testCloud(20, 5), Grid: GridJSON{Dims: [3]int{4, 4, 2}}})
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/reconstruct", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-sawCancel:
		if err == nil {
			t.Fatal("reconstructor finished instead of observing cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not observe client cancellation")
	}
	if err := <-errc; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
}

// TestGracefulShutdownDrains checks Shutdown waits for an in-flight
// reconstruction to finish and the client still gets its 200.
func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	reg := recon.NewRegistry()
	reg.RegisterMethod(&stubRecon{name: "slow", fn: func(ctx context.Context, _ *recon.Plan, _ recon.Region, dst []float64) error {
		started <- struct{}{}
		select {
		case <-time.After(250 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
		for i := range dst {
			dst[i] = 7
		}
		return nil
	}})
	s, base := startServer(t, Config{Registry: reg})

	result := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, base+"/v1/reconstruct", ReconstructRequest{
			Method: "slow", Cloud: testCloud(20, 6), Grid: GridJSON{Dims: [3]int{4, 4, 2}}})
		result <- code
	}()
	<-started

	shutdownStart := time.Now()
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	drain := time.Since(shutdownStart)
	if code := <-result; code != http.StatusOK {
		t.Fatalf("in-flight request got %d during graceful shutdown", code)
	}
	if drain < 100*time.Millisecond {
		t.Fatalf("shutdown returned in %s, before the in-flight request could finish", drain)
	}
	// New connections must be refused after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestPlanCacheEviction checks the LRU bound: with capacity 1,
// alternating clouds evict each other and the eviction counter moves.
func TestPlanCacheEviction(t *testing.T) {
	tel := telemetry.NewRegistry()
	_, base := startServer(t, Config{Telemetry: tel, PlanCacheSize: 1})
	a, b := testCloud(50, 7), testCloud(50, 8)
	for i := 0; i < 2; i++ {
		for _, c := range []*CloudJSON{a, b} {
			req := ReconstructRequest{Method: "nearest", Cloud: c, Grid: GridJSON{Dims: [3]int{4, 4, 2}}}
			if code, body := postJSON(t, base+"/v1/reconstruct", req); code != http.StatusOK {
				t.Fatalf("query: %d %s", code, body)
			}
		}
	}
	if ev := tel.Counter("server.plan_cache.evictions").Value(); ev < 2 {
		t.Fatalf("evictions = %d, want >= 2 with capacity 1 and alternating clouds", ev)
	}
	if misses := tel.Counter("server.plan_cache.misses").Value(); misses < 3 {
		t.Fatalf("misses = %d, want >= 3 (thrashing cache)", misses)
	}
}

// TestBadRequests covers the validation surface: every malformed input
// must produce a 4xx with a JSON error, never a 5xx or a hang.
func TestBadRequests(t *testing.T) {
	_, base := startServer(t, Config{})
	grid4 := GridJSON{Dims: [3]int{4, 4, 2}}
	cases := []struct {
		name string
		req  ReconstructRequest
		want int
	}{
		{"unknown method", ReconstructRequest{Method: "nope", Cloud: testCloud(10, 9), Grid: grid4}, http.StatusBadRequest},
		{"no cloud", ReconstructRequest{Method: "nearest", Grid: grid4}, http.StatusBadRequest},
		{"both cloud forms", ReconstructRequest{Method: "nearest", Cloud: testCloud(10, 9), CloudID: "0000000000000000", Grid: grid4}, http.StatusBadRequest},
		{"unknown cloud id", ReconstructRequest{Method: "nearest", CloudID: "00000000000000ff", Grid: grid4}, http.StatusNotFound},
		{"bad cloud id", ReconstructRequest{Method: "nearest", CloudID: "xyz", Grid: grid4}, http.StatusBadRequest},
		{"zero grid", ReconstructRequest{Method: "nearest", Cloud: testCloud(10, 9), Grid: GridJSON{}}, http.StatusBadRequest},
		{"bad box", ReconstructRequest{Method: "nearest", Cloud: testCloud(10, 9), Grid: grid4,
			Region: RegionJSON{Box: &[6]int{0, 0, 0, 9, 9, 9}}}, http.StatusBadRequest},
		{"box and points", ReconstructRequest{Method: "nearest", Cloud: testCloud(10, 9), Grid: grid4,
			Region: RegionJSON{Box: &[6]int{0, 0, 0, 2, 2, 2}, Points: [][3]float64{{0, 0, 0}}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := postJSON(t, base+"/v1/reconstruct", tc.req)
		if code != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.name, code, body, tc.want)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not a JSON envelope: %s", tc.name, body)
		}
		if tc.name == "unknown method" && !bytes.Contains(body, []byte("nearest")) {
			t.Errorf("unknown-method error does not list registered names: %s", body)
		}
	}

	// Mismatched point/value lengths on upload.
	bad := &CloudJSON{Points: [][3]float64{{0, 0, 0}}, Values: []float64{1, 2}}
	if code, _ := postJSON(t, base+"/v1/clouds", bad); code != http.StatusBadRequest {
		t.Errorf("mismatched upload accepted with %d", code)
	}
	// Garbage JSON body.
	resp, err := http.Post(base+"/v1/reconstruct", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: %d, want 400", resp.StatusCode)
	}
}

// TestHealthzMethodsMetrics smoke-tests the observability endpoints.
func TestHealthzMethodsMetrics(t *testing.T) {
	_, base := startServer(t, Config{})
	var h HealthResponse
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
	var m MethodsResponse
	if code := getJSON(t, base+"/v1/methods", &m); code != http.StatusOK || len(m.Methods) == 0 {
		t.Fatalf("methods: %d %+v", code, m)
	}
	found := false
	for _, name := range m.Methods {
		if name == "nearest" {
			found = true
		}
	}
	if !found {
		t.Fatalf("methods list %v missing nearest", m.Methods)
	}
	var snap map[string]any
	if code := getJSON(t, base+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: %d", resp.StatusCode)
	}
}

// TestRequestTimeout checks a reconstruction exceeding RequestTimeout
// is cancelled and reported as 504.
func TestRequestTimeout(t *testing.T) {
	reg := recon.NewRegistry()
	reg.RegisterMethod(&stubRecon{name: "forever", fn: func(ctx context.Context, _ *recon.Plan, _ recon.Region, dst []float64) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	_, base := startServer(t, Config{Registry: reg, RequestTimeout: 100 * time.Millisecond})
	req := ReconstructRequest{Method: "forever", Cloud: testCloud(10, 10), Grid: GridJSON{Dims: [3]int{2, 2, 2}}}
	code, body := postJSON(t, base+"/v1/reconstruct", req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timeout request: %d %s, want 504", code, body)
	}
}

// TestConfigValidation checks New rejects a missing registry.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil registry")
	}
}

// TestUploadIdempotent checks re-uploading the same cloud returns the
// same id (content addressing).
func TestUploadIdempotent(t *testing.T) {
	_, base := startServer(t, Config{})
	c := testCloud(30, 11)
	var first UploadResponse
	for i := 0; i < 2; i++ {
		code, body := postJSON(t, base+"/v1/clouds", c)
		if code != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, code, body)
		}
		var up UploadResponse
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = up
		} else if up.CloudID != first.CloudID {
			t.Fatalf("same cloud got ids %s and %s", first.CloudID, up.CloudID)
		}
	}
	if first.Points != 30 {
		t.Fatalf("upload reports %d points, want 30", first.Points)
	}
}
