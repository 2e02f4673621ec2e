package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fillvoid/internal/mathutil"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/telemetry"
)

func testClusterOf(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func specOf(nx, ny, nz int) recon.GridSpec {
	return recon.GridSpec{NX: nx, NY: ny, NZ: nz, Spacing: mathutil.Vec3{X: 1, Y: 1, Z: 1}}
}

// shardValues computes the deterministic per-cell payload a fake
// replica returns for one shard, in box-local x-fastest order.
func shardValues(shard recon.Region) []float64 {
	out := make([]float64, shard.Len())
	for m := range out {
		i, j, k := shard.Coords(m)
		out[m] = float64(i) + 100*float64(j) + 10000*float64(k)
	}
	return out
}

// TestPlanRoutes pins the routing decision table: single member always
// local, large boxes fan out, small queries go to the key's ring owner
// (local or proxy), and point lists never fan out regardless of size.
func TestPlanRoutes(t *testing.T) {
	solo := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0"), ShardThreshold: 1})
	if route, _, _ := solo.Plan(keyHash(1), recon.Box(0, 0, 0, 10, 10, 10)); route != RouteLocal {
		t.Fatalf("single-member cluster routed %v, want local", route)
	}

	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1", "r2"),
		ShardThreshold: 100, Telemetry: tel})

	if route, _, width := c.Plan(keyHash(2), recon.Box(0, 0, 0, 10, 10, 10)); route != RouteFanout || width != 3 {
		t.Fatalf("1000-point box routed (%v, width %d), want fanout across 3", route, width)
	}
	pts := make([]mathutil.Vec3, 500)
	if route, _, _ := c.Plan(keyHash(3), recon.PointList(pts)); route == RouteFanout {
		t.Fatal("point-list region fanned out; points cannot be sharded by sub-box")
	}

	// Small boxes follow the ring owner, and every replica agrees on it.
	ring := newRing(membersOf("r0", "r1", "r2"), 64)
	sawProxy := false
	for i := 0; i < 50; i++ {
		h := keyHash(100 + i)
		route, owner, _ := c.Plan(h, recon.Box(0, 0, 0, 2, 2, 2))
		want := ring.owner(h).ID
		switch route {
		case RouteLocal:
			if want != "r0" {
				t.Fatalf("key %d executed locally but the ring owner is %s", i, want)
			}
		case RouteProxy:
			sawProxy = true
			if owner.ID != want {
				t.Fatalf("key %d proxied to %s, ring owner is %s", i, owner.ID, want)
			}
		default:
			t.Fatalf("small box routed %v", route)
		}
	}
	if !sawProxy {
		t.Fatal("no key in 50 proxied away from r0; ring placement is degenerate")
	}
	if tel.Counter("cluster.route.proxy").Value() == 0 || tel.Counter("cluster.route.local").Value() == 0 {
		t.Fatal("routing counters did not move")
	}
}

// TestFanoutStitchesShardsAcrossReplicas drives Fanout through the do
// seam: each sub-query is answered with deterministic per-cell values,
// and the assembled volume must equal the direct region evaluation.
// Along the way it checks shard placement walks the ring (both members
// serve sub-queries) and the shard counter advances.
func TestFanoutStitchesShardsAcrossReplicas(t *testing.T) {
	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1"),
		ShardThreshold: 10, HedgeAfter: time.Hour, Telemetry: tel})

	var perMember [2]atomic.Int64
	c.do = func(ctx context.Context, m Member, q *subQuery) ([]float64, error) {
		if m.ID == "r0" {
			perMember[0].Add(1)
		} else {
			perMember[1].Add(1)
		}
		b := q.Region.Box
		return shardValues(recon.Box(b[0], b[1], b[2], b[3], b[4], b[5])), nil
	}

	spec := specOf(16, 12, 8)
	region := recon.Full(spec)
	res, err := c.Fanout(context.Background(), &Query{
		Method: "nearest", CloudID: "0123456789abcdef", Spec: spec,
		Region: region, KeyHash: keyHash(7),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Fatalf("shards = %d, want 4", res.Shards)
	}
	want := shardValues(region)
	if len(res.Values) != len(want) {
		t.Fatalf("stitched %d values, want %d", len(res.Values), len(want))
	}
	for m := range want {
		if res.Values[m] != want[m] {
			t.Fatalf("value[%d] = %g, want %g", m, res.Values[m], want[m])
		}
	}
	if perMember[0].Load() == 0 || perMember[1].Load() == 0 {
		t.Fatalf("sub-queries did not spread over both replicas (%d, %d)",
			perMember[0].Load(), perMember[1].Load())
	}
	if got := tel.Counter("cluster.fanout.shards").Value(); got != 4 {
		t.Fatalf("cluster.fanout.shards = %d, want 4", got)
	}
}

// TestHedgeRacesSlowPrimary: a sub-query whose primary stalls past the
// hedge delay must be raced against the next replica on the ring; the
// backup's answer wins and the hedge counters advance.
func TestHedgeRacesSlowPrimary(t *testing.T) {
	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1"),
		HedgeAfter: 5 * time.Millisecond, Telemetry: tel})

	replicas := c.replicasFor(keyHash(11), 2)
	primary := replicas[0].ID
	c.do = func(ctx context.Context, m Member, q *subQuery) ([]float64, error) {
		if m.ID == primary {
			<-ctx.Done() // stall until the winner cancels us
			return nil, ctx.Err()
		}
		b := q.Region.Box
		return shardValues(recon.Box(b[0], b[1], b[2], b[3], b[4], b[5])), nil
	}

	spec := specOf(4, 4, 2)
	shard := recon.Full(spec)
	vals, hedged, err := c.runShard(context.Background(), &Query{Spec: spec, Region: shard, KeyHash: keyHash(11)},
		shard, replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hedged {
		t.Fatal("stalled primary did not trigger a hedge")
	}
	if len(vals) != shard.Len() {
		t.Fatalf("hedged answer has %d values, want %d", len(vals), shard.Len())
	}
	if tel.Counter("cluster.hedges").Value() != 1 || tel.Counter("cluster.hedge_wins").Value() != 1 {
		t.Fatalf("hedge counters = (%d, %d), want (1, 1)",
			tel.Counter("cluster.hedges").Value(), tel.Counter("cluster.hedge_wins").Value())
	}
}

// TestPrimaryFailureFailsOverImmediately: an outright primary error
// must not wait out the hedge timer before trying the backup.
func TestPrimaryFailureFailsOverImmediately(t *testing.T) {
	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1"),
		HedgeAfter: time.Hour, Telemetry: tel})

	replicas := c.replicasFor(keyHash(13), 2)
	primary := replicas[0].ID
	c.do = func(ctx context.Context, m Member, q *subQuery) ([]float64, error) {
		if m.ID == primary {
			return nil, errors.New("replica on fire")
		}
		b := q.Region.Box
		return shardValues(recon.Box(b[0], b[1], b[2], b[3], b[4], b[5])), nil
	}

	spec := specOf(4, 4, 2)
	shard := recon.Full(spec)
	start := time.Now()
	vals, _, err := c.runShard(context.Background(), &Query{Spec: spec, Region: shard, KeyHash: keyHash(13)},
		shard, replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != shard.Len() {
		t.Fatalf("failover answer has %d values", len(vals))
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("failover waited for the hour-long hedge timer")
	}
}

// TestSuccessfulPrimaryNeverFailsOver: the hedge leg wakes as soon as
// the primary leg finishes, and with an hour-long hedge delay it may
// fail over only when the primary failed. It must never take a
// successful primary for a failed one and re-run the shard on the
// backup. Whether a run hits that window is up to the scheduler, so
// the test repeats runShard many times; the race detector widens the
// window, which is why the short mode that `make race` uses still
// fails reliably on a wrong ordering with fewer runs.
func TestSuccessfulPrimaryNeverFailsOver(t *testing.T) {
	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1"),
		HedgeAfter: time.Hour, Telemetry: tel})
	replicas := c.replicasFor(keyHash(19), 2)
	primary := replicas[0].ID
	var backupCalls atomic.Int64
	c.do = func(ctx context.Context, m Member, q *subQuery) ([]float64, error) {
		if m.ID != primary {
			backupCalls.Add(1)
		}
		b := q.Region.Box
		return shardValues(recon.Box(b[0], b[1], b[2], b[3], b[4], b[5])), nil
	}
	spec := specOf(4, 4, 2)
	shard := recon.Full(spec)
	q := &Query{Spec: spec, Region: shard, KeyHash: keyHash(19)}
	runs := 100_000
	if testing.Short() {
		runs = 20_000
	}
	for i := 0; i < runs; i++ {
		if _, _, err := c.runShard(context.Background(), q, shard, replicas, 0); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if n := backupCalls.Load(); n != 0 {
		t.Fatalf("successful primary failed over to the backup in %d of %d runs (cluster.hedges = %d)",
			n, runs, tel.Counter("cluster.hedges").Value())
	}
}

// TestBothReplicasFailingSurfacesBothErrors: when the primary and the
// hedge both fail, the caller sees a single error naming both causes.
func TestBothReplicasFailingSurfacesBothErrors(t *testing.T) {
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1"),
		HedgeAfter: time.Millisecond})
	c.do = func(ctx context.Context, m Member, q *subQuery) ([]float64, error) {
		return nil, fmt.Errorf("%s declined", m.ID)
	}
	spec := specOf(4, 4, 2)
	shard := recon.Full(spec)
	replicas := c.replicasFor(keyHash(17), 2)
	_, _, err := c.runShard(context.Background(), &Query{Spec: spec, Region: shard}, shard, replicas, 0)
	if err == nil {
		t.Fatal("both replicas failed yet runShard succeeded")
	}
}

// TestHTTPDoRepushesEvictedCloud: a replica answering 404 "not in
// store" (its cloud LRU evicted the entry) gets the cloud re-pushed and
// the sub-query retried, transparently to the caller.
func TestHTTPDoRepushesEvictedCloud(t *testing.T) {
	var pushed atomic.Bool
	var reconCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reconstruct", func(w http.ResponseWriter, r *http.Request) {
		reconCalls.Add(1)
		if r.Header.Get(HeaderInternal) != internalShard {
			t.Errorf("sub-query missing %s header", HeaderInternal)
		}
		w.Header().Set("Content-Type", "application/json")
		if !pushed.Load() {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"cloud 0123456789abcdef not in store (re-upload via /v1/clouds)"}`)
			return
		}
		fmt.Fprint(w, `{"values":[1,2,3,4]}`)
	})
	mux.HandleFunc("POST /v1/clouds", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderInternal) != internalReplicate {
			t.Errorf("cloud push missing %s header", HeaderInternal)
		}
		pushed.Store(true)
		fmt.Fprint(w, `{"cloud_id":"0123456789abcdef","points":2}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r0", Members: []Member{{ID: "r0", URL: srv.URL}}, Telemetry: tel})

	cloud := pointcloud.New("pressure", 2)
	cloud.Add(mathutil.Vec3{X: 0.1}, 1)
	cloud.Add(mathutil.Vec3{X: 0.9}, 2)
	q := c.subRequest(&Query{Method: "nearest", CloudID: "0123456789abcdef", Cloud: cloud,
		Spec: specOf(4, 1, 1)}, recon.Box(0, 0, 0, 4, 1, 1))

	vals, err := c.httpDo(context.Background(), Member{ID: "r1", URL: srv.URL}, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d values after re-push, want 4", len(vals))
	}
	if !pushed.Load() || reconCalls.Load() != 2 {
		t.Fatalf("expected push + retry (pushed=%v, recon calls=%d)", pushed.Load(), reconCalls.Load())
	}
	if got := tel.Counter("cluster.cloud_pushes").Value(); got != 1 {
		t.Fatalf("cluster.cloud_pushes = %d, want 1", got)
	}
}

// TestSetMembersRequiresSelf pins the membership validation and the
// late-binding flow (placeholder URLs swapped once listeners exist).
func TestSetMembersRequiresSelf(t *testing.T) {
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0", "r1")})
	if err := c.SetMembers(membersOf("r1", "r2")); err == nil {
		t.Fatal("SetMembers accepted a list without self")
	}
	if err := c.SetMembers([]Member{{ID: "r0", URL: "http://real:1"}, {ID: "r1", URL: "http://real:2"}}); err != nil {
		t.Fatal(err)
	}
	if c.Self().URL != "http://real:1" {
		t.Fatalf("self URL not rebound: %q", c.Self().URL)
	}
	if _, err := New(Config{Self: "r9", Members: membersOf("r0", "r1")}); err == nil {
		t.Fatal("New accepted a member list without self")
	}
}

// TestStatusSnapshot checks the /v1/cluster payload assembly.
func TestStatusSnapshot(t *testing.T) {
	tel := telemetry.NewRegistry()
	c := testClusterOf(t, Config{Self: "r1", Members: membersOf("r1", "r0"), ShardThreshold: 10, Telemetry: tel})
	if route, _, _ := c.Plan(keyHash(1), recon.Box(0, 0, 0, 10, 10, 10)); route != RouteFanout {
		t.Fatal("expected a fanout route")
	}
	st := c.StatusSnapshot()
	if st.Replica != "r1" || len(st.Members) != 2 {
		t.Fatalf("status %+v", st)
	}
	if st.Members[0].ID != "r0" || st.Members[1].ID != "r1" || !st.Members[1].Self {
		t.Fatalf("members not ID-sorted with self marked: %+v", st.Members)
	}
	if st.Counters["cluster.route.fanout"] != 1 {
		t.Fatalf("fanout counter = %d in status", st.Counters["cluster.route.fanout"])
	}
	if st.Shards != 2 {
		t.Fatalf("default shard width = %d, want member count 2", st.Shards)
	}
}

// TestLatencyTrackerQuantile covers the adaptive hedge-delay source.
func TestLatencyTrackerQuantile(t *testing.T) {
	lt := newLatencyTracker(32)
	if _, ok := lt.quantile(0.95); ok {
		t.Fatal("quantile reported ok with no samples")
	}
	for i := 1; i <= 20; i++ {
		lt.observe(time.Duration(i) * time.Millisecond)
	}
	p95, ok := lt.quantile(0.95)
	if !ok {
		t.Fatal("quantile not ready after 20 samples")
	}
	if p95 < 15*time.Millisecond || p95 > 20*time.Millisecond {
		t.Fatalf("p95 = %s over 1..20ms", p95)
	}
	// Hedge delay clamps: tiny p95s round up to 5ms.
	c := testClusterOf(t, Config{Self: "r0", Members: membersOf("r0")})
	for i := 0; i < 32; i++ {
		c.lat.observe(time.Microsecond)
	}
	if d := c.hedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("hedge delay %s, want the 5ms floor", d)
	}
}
