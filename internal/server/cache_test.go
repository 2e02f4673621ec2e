package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fillvoid/internal/delaunay"
	"fillvoid/internal/interp"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/telemetry"
)

// cloudOf builds a deterministic pointcloud.Cloud (not the wire form)
// for direct planCache tests.
func cloudOf(n int, seed int64) *pointcloud.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := pointcloud.New("pressure", n)
	for i := 0; i < n; i++ {
		x, y, z := rng.Float64(), rng.Float64(), rng.Float64()
		c.Add(mathutil.Vec3{X: x, Y: y, Z: z}, x-y+3*z)
	}
	return c
}

// TestThunderingHerdBuildsOnePlan pins the singleflight contract: 32
// concurrent first requests for one (cloud, spec) key run exactly one
// recon.NewPlan; the other 31 coalesce onto the leader's build and
// count as server.plan_cache.coalesced. The build seam is gated so the
// herd provably piles up while the build is still in flight — without
// coalescing, every one of the 32 would start its own build.
func TestThunderingHerdBuildsOnePlan(t *testing.T) {
	tel := telemetry.NewRegistry()
	s, base := startServer(t, Config{Telemetry: tel, MaxConcurrent: 64, MaxQueue: 64})

	var builds atomic.Int64
	gate := make(chan struct{})
	orig := s.plans.build
	s.plans.build = func(cloud *pointcloud.Cloud, spec recon.GridSpec) (*recon.Plan, error) {
		builds.Add(1)
		<-gate
		return orig(cloud, spec)
	}

	code, body := postJSON(t, base+"/v1/clouds", testCloud(150, 21))
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	var up UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}

	const clients = 32
	var wg sync.WaitGroup
	var failures, uncached atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := ReconstructRequest{Method: "nearest", CloudID: up.CloudID, Grid: testGrid()}
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
			if !rr.PlanCached {
				uncached.Add(1)
			}
		}()
	}

	// Hold the gate until every follower has joined the in-flight build,
	// so the test proves coalescing rather than racing it.
	deadline := time.Now().Add(10 * time.Second)
	for tel.Counter("server.plan_cache.coalesced").Value() != clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d after 10s, want %d (builds started: %d)",
				tel.Counter("server.plan_cache.coalesced").Value(), clients-1, builds.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds in flight = %d with the whole herd queued, want 1", got)
	}
	close(gate)
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d of %d herd requests failed", n, clients)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("recon.NewPlan ran %d times for one key, want 1", got)
	}
	if got := tel.Counter("server.plan_cache.misses").Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := tel.Counter("server.plan_cache.coalesced").Value(); got != clients-1 {
		t.Fatalf("coalesced = %d, want %d", got, clients-1)
	}
	// Exactly the leader reports plan_cached=false.
	if got := uncached.Load(); got != 1 {
		t.Fatalf("%d responses reported an uncached plan, want exactly 1 (the leader)", got)
	}
}

// TestPlanCacheBytesGaugeUnderChurn pins the gauge accounting fix:
// plans grow lazily after insertion (k-d tree, nearest table, the
// Delaunay memo), so the old insert-size-only bookkeeping under-added
// and a later eviction drove server.plan_cache.bytes negative. With
// per-entry accounting the gauge stays non-negative through
// insert/grow/evict churn and lands exactly on the sum of the resident
// plans' measured sizes, the tetrahedralization included.
func TestPlanCacheBytesGaugeUnderChurn(t *testing.T) {
	tel := telemetry.NewRegistry()
	pc := newPlanCache(2, tel)
	gauge := tel.Gauge("server.plan_cache.bytes")
	reg := interp.StandardRegistry(2)
	m, err := reg.Get("nearest")
	if err != nil {
		t.Fatal(err)
	}
	linear, err := reg.Get("linear")
	if err != nil {
		t.Fatal(err)
	}
	spec := recon.GridSpec{NX: 8, NY: 8, NZ: 4, Spacing: mathutil.Vec3{X: 0.2, Y: 0.2, Z: 0.3}}

	check := func(step string, key recon.PlanKey) {
		if v := gauge.Value(); v < 0 {
			t.Fatalf("%s %v: plan_cache.bytes went negative: %g", step, key.Cloud, v)
		}
	}

	clouds := make([]*pointcloud.Cloud, 5)
	for i := range clouds {
		clouds[i] = cloudOf(60+10*i, int64(100+i))
	}
	latest := make(map[recon.PlanKey]*recon.Plan)
	var order []recon.PlanKey
	for round := 0; round < 3; round++ {
		for _, c := range clouds {
			key := recon.KeyOf(c, spec)
			plan, _, err := pc.getOrBuild(key, c, spec)
			if err != nil {
				t.Fatal(err)
			}
			check("after getOrBuild", key)
			// Grow the plan's lazy pieces past its insert-time size:
			// the nearest table, then the Delaunay memo.
			if _, err := recon.Reconstruct(context.Background(), m, plan, recon.Full(spec)); err != nil {
				t.Fatal(err)
			}
			withTable := plan.Stats().Bytes
			if _, err := recon.Reconstruct(context.Background(), linear, plan, recon.Box(0, 0, 0, 2, 2, 1)); err != nil {
				t.Fatal(err)
			}
			tri, err := plan.Memo("delaunay", func() (any, error) { return nil, errors.New("delaunay memo not built") })
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.Stats().Bytes-withTable, tri.(*delaunay.Triangulation).Bytes(); got != want || want <= 0 {
				t.Fatalf("linear grew the plan by %d bytes, its tetrahedralization reports %d", got, want)
			}
			// A hit reconciles the growth into the gauge.
			if _, _, err := pc.getOrBuild(key, c, spec); err != nil {
				t.Fatal(err)
			}
			check("after reconcile", key)
			latest[key] = plan
			order = append(order, key)
		}
	}

	// Capacity 2: exactly the last two distinct keys are resident, and
	// the gauge must equal the sum of their last-reconciled sizes.
	var want int64
	for _, key := range order[len(order)-2:] {
		want += latest[key].Stats().Bytes
	}
	if got := int64(gauge.Value()); got != want {
		t.Fatalf("plan_cache.bytes = %d after churn, want %d (sum of resident plans)", got, want)
	}
	if ev := tel.Counter("server.plan_cache.evictions").Value(); ev < 10 {
		t.Fatalf("evictions = %d, want >= 10 (5 clouds x 3 rounds through a 2-entry cache)", ev)
	}
}

// TestPlanBuildFailureIsSharedAndRetriable checks a failed build is
// delivered to coalesced waiters and does not poison the key: the next
// request builds again.
func TestPlanBuildFailureIsSharedAndRetriable(t *testing.T) {
	tel := telemetry.NewRegistry()
	pc := newPlanCache(2, tel)
	cloud := cloudOf(30, 9)
	spec := recon.GridSpec{NX: 4, NY: 4, NZ: 2, Spacing: mathutil.Vec3{X: 1, Y: 1, Z: 1}}
	key := recon.KeyOf(cloud, spec)

	var calls atomic.Int64
	pc.build = func(c *pointcloud.Cloud, s recon.GridSpec) (*recon.Plan, error) {
		calls.Add(1)
		return nil, context.DeadlineExceeded
	}
	if _, _, err := pc.getOrBuild(key, cloud, spec); err == nil {
		t.Fatal("build failure not surfaced")
	}
	pc.build = recon.NewPlan
	plan, cached, err := pc.getOrBuild(key, cloud, spec)
	if err != nil || plan == nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if cached {
		t.Fatal("retry reported a cache hit; failed build must not be cached")
	}
	if calls.Load() != 1 {
		t.Fatalf("failing builder called %d times, want 1", calls.Load())
	}
}
