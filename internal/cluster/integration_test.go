// Multi-replica integration tests: real servers on ephemeral ports,
// wired into a cluster, serving the golden Isabel-analog fixture. In an
// external test package so it can import both cluster and server
// (server imports cluster; the reverse would be a cycle).
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"fillvoid/internal/cluster"
	"fillvoid/internal/datasets"
	"fillvoid/internal/interp"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/sampling"
	"fillvoid/internal/server"
	"fillvoid/internal/telemetry"
)

// isabelCloud reproduces the repo's golden fixture: one Isabel-analog
// frame on a 32x32x10 grid, importance-sampled at 5%.
func isabelCloud(t *testing.T) (*pointcloud.Cloud, server.GridJSON) {
	t.Helper()
	gen, err := datasets.ByName("isabel", 7)
	if err != nil {
		t.Fatal(err)
	}
	truth := datasets.Volume(gen, 32, 32, 10, 10)
	cloud, _, err := (&sampling.Importance{Seed: 3}).Sample(truth, "pressure", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec := interp.SpecOf(truth)
	origin := [3]float64{spec.Origin.X, spec.Origin.Y, spec.Origin.Z}
	spacing := [3]float64{spec.Spacing.X, spec.Spacing.Y, spec.Spacing.Z}
	return cloud, server.GridJSON{Dims: [3]int{spec.NX, spec.NY, spec.NZ}, Origin: &origin, Spacing: &spacing}
}

func wireCloudOf(c *pointcloud.Cloud) *server.CloudJSON {
	cj := &server.CloudJSON{Name: c.Name, Values: c.Values}
	for _, p := range c.Points {
		cj.Points = append(cj.Points, [3]float64{p.X, p.Y, p.Z})
	}
	return cj
}

func post(t *testing.T, url string, body any) (int, []byte) {
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

type replica struct {
	srv *server.Server
	cl  *cluster.Cluster
	tel *telemetry.Registry
	url string
}

// startCluster boots n replicas, each with its own registry,
// on ephemeral ports and binds them into one membership. Listener addresses only exist after Start, so the
// clusters begin on placeholder URLs and are rebound via SetMembers —
// the same late-binding flow the serve command uses.
func startCluster(t *testing.T, n, shards, threshold int) []replica {
	t.Helper()
	reps := make([]replica, n)
	placeholders := make([]cluster.Member, n)
	for i := range placeholders {
		placeholders[i] = cluster.Member{ID: fmt.Sprintf("r%d", i)}
	}
	for i := range reps {
		tel := telemetry.NewRegistry()
		cl, err := cluster.New(cluster.Config{
			Self:           fmt.Sprintf("r%d", i),
			Members:        placeholders,
			Shards:         shards,
			ShardThreshold: threshold,
			// A fixed, generous hedge delay keeps the counter assertions
			// deterministic on slow CI machines.
			HedgeAfter: 30 * time.Second,
			Telemetry:  tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Registry:  interp.StandardRegistry(2),
			Telemetry: tel,
			Cluster:   cl,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		reps[i] = replica{srv: srv, cl: cl, tel: tel, url: "http://" + srv.Addr()}
	}
	members := make([]cluster.Member, n)
	for i, r := range reps {
		members[i] = cluster.Member{ID: fmt.Sprintf("r%d", i), URL: r.url}
	}
	for _, r := range reps {
		if err := r.cl.SetMembers(members); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// TestShardedMatchesSingleReplicaGolden is the tentpole acceptance
// test: a full-grid reconstruction of the golden Isabel fixture fanned
// out across a cluster must be bit-identical to the standalone answer,
// across several replica/shard shapes. The engine pins ROI == full-grid
// bit-identity; this pins that HTTP sharding, JSON float round-trips,
// and stitching preserve it end to end.
func TestShardedMatchesSingleReplicaGolden(t *testing.T) {
	cloud, gj := isabelCloud(t)
	cj := wireCloudOf(cloud)

	// Standalone reference.
	ref, err := server.New(server.Config{Registry: interp.StandardRegistry(2), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	code, body := post(t, "http://"+ref.Addr()+"/v1/reconstruct",
		&server.ReconstructRequest{Method: "shepard", Cloud: cj, Grid: gj})
	if code != http.StatusOK {
		t.Fatalf("reference: %d %s", code, body)
	}
	var refResp server.ReconstructResponse
	if err := json.Unmarshal(body, &refResp); err != nil {
		t.Fatal(err)
	}
	if refResp.Replica != "" || refResp.Shards != 0 {
		t.Fatalf("standalone response carries cluster fields: %q/%d", refResp.Replica, refResp.Shards)
	}

	configs := []struct {
		name             string
		replicas, shards int
		wantShards       int
	}{
		{"2 replicas, 2 shards", 2, 2, 2},
		{"3 replicas, 3 shards", 3, 3, 3},
		{"3 replicas, 5 shards", 3, 5, 5},
		{"4 replicas, default width", 4, 0, 4},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			reps := startCluster(t, cfg.replicas, cfg.shards, 1)
			code, body := post(t, reps[0].url+"/v1/clouds", cj)
			if code != http.StatusOK {
				t.Fatalf("upload: %d %s", code, body)
			}
			code, body = post(t, reps[0].url+"/v1/reconstruct",
				&server.ReconstructRequest{Method: "shepard", Cloud: cj, Grid: gj})
			if code != http.StatusOK {
				t.Fatalf("sharded reconstruct: %d %s", code, body)
			}
			var got server.ReconstructResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Shards != cfg.wantShards {
				t.Fatalf("shards = %d, want %d", got.Shards, cfg.wantShards)
			}
			if got.Replica != "r0" {
				t.Fatalf("coordinator replica = %q, want r0", got.Replica)
			}
			if got.Dims != refResp.Dims || got.Origin != refResp.Origin || got.Spacing != refResp.Spacing {
				t.Fatalf("sharded geometry %v/%v/%v, reference %v/%v/%v",
					got.Dims, got.Origin, got.Spacing, refResp.Dims, refResp.Origin, refResp.Spacing)
			}
			if len(got.Values) != len(refResp.Values) {
				t.Fatalf("sharded %d values, reference %d", len(got.Values), len(refResp.Values))
			}
			for i := range got.Values {
				if got.Values[i] != refResp.Values[i] {
					t.Fatalf("%s: value[%d] = %v, reference %v — sharded run is not bit-identical",
						cfg.name, i, got.Values[i], refResp.Values[i])
				}
			}
			// Plan-build economy: every replica builds the (cloud, spec)
			// plan at most once, however many shards it served.
			for i, r := range reps {
				if misses := r.tel.Counter("server.plan_cache.misses").Value(); misses > 1 {
					t.Fatalf("replica %d built %d plans for one key", i, misses)
				}
			}
			if fanouts := reps[0].tel.Counter("cluster.route.fanout").Value(); fanouts != 1 {
				t.Fatalf("cluster.route.fanout = %d on the coordinator, want 1", fanouts)
			}
		})
	}
}

// TestShardTracesJoinCallersTrace: a sharded box query sent with a
// traceparent continues the caller's trace on every replica that ran a
// shard, and each of those remote traces holds the engine's execute
// stage — whichever replica's registry was created last.
func TestShardTracesJoinCallersTrace(t *testing.T) {
	cloud, gj := isabelCloud(t)
	cj := wireCloudOf(cloud)
	reps := startCluster(t, 3, 3, 1)
	if code, body := post(t, reps[0].url+"/v1/clouds", cj); code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}

	caller := telemetry.NewTraceID()
	b, err := json.Marshal(&server.ReconstructRequest{Method: "shepard", Cloud: cj, Grid: gj,
		Region: server.RegionJSON{Box: &[6]int{0, 0, 0, 24, 24, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", reps[0].url+"/v1/reconstruct", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", telemetry.FormatTraceparent(caller, telemetry.NewSpanID(), true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded box query: %d %s %v", resp.StatusCode, body, err)
	}
	var got server.ReconstructResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Shards < 2 {
		t.Fatalf("query ran as %d shards, want a fan-out", got.Shards)
	}

	total := int64(0)
	for i, r := range reps {
		// Every reconstruct request a replica served (its root span's
		// count), less the external one at the coordinator, is a shard
		// it ran.
		var shards int64
		if st := r.tel.SpanStatFor("server/reconstruct"); st != nil {
			shards = st.Count()
		}
		if i == 0 {
			shards--
		}
		total += shards
		executed := int64(0)
		for _, td := range r.tel.Traces() {
			if td.TraceID != caller {
				continue
			}
			if !td.Remote {
				t.Fatalf("replica %d: trace %s is not marked remote", i, caller)
			}
			for _, sp := range td.Spans {
				if sp.Name == "recon/execute" {
					executed++
					break
				}
			}
		}
		if executed != shards {
			t.Fatalf("replica %d ran %d shards but holds %d traces of %s with recon/execute", i, shards, executed, caller)
		}
	}
	if total != int64(got.Shards) {
		t.Fatalf("replicas ran %d shards, response reports %d", total, got.Shards)
	}
}

// TestProxyRoutesSmallQueriesToOwner: below the shard threshold, every
// replica must agree on the key's owner and forward there, so exactly
// one replica's plan cache ever holds the plan.
func TestProxyRoutesSmallQueriesToOwner(t *testing.T) {
	cloud, gj := isabelCloud(t)
	cj := wireCloudOf(cloud)
	reps := startCluster(t, 3, 0, 1<<30) // threshold high: never fan out

	code, body := post(t, reps[0].url+"/v1/clouds", cj)
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}

	req := &server.ReconstructRequest{Method: "nearest", Cloud: cj, Grid: gj,
		Region: server.RegionJSON{Box: &[6]int{0, 0, 0, 4, 4, 4}}}
	var answers []server.ReconstructResponse
	for i, r := range reps {
		code, body := post(t, r.url+"/v1/reconstruct", req)
		if code != http.StatusOK {
			t.Fatalf("via replica %d: %d %s", i, code, body)
		}
		var resp server.ReconstructResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		answers = append(answers, resp)
	}
	owner := answers[0].Replica
	if owner == "" {
		t.Fatal("clustered response has no replica field")
	}
	for i, a := range answers {
		if a.Replica != owner {
			t.Fatalf("replica field differs by entry point: %q via r0, %q via r%d — owner routing is unstable",
				owner, a.Replica, i)
		}
		for m := range a.Values {
			if a.Values[m] != answers[0].Values[m] {
				t.Fatalf("answer via r%d differs at value[%d]", i, m)
			}
		}
	}
	var local, proxied, misses int64
	for _, r := range reps {
		local += r.tel.Counter("cluster.route.local").Value()
		proxied += r.tel.Counter("cluster.route.proxy").Value()
		misses += r.tel.Counter("server.plan_cache.misses").Value()
	}
	if local != 1 || proxied != 2 {
		t.Fatalf("route counters local=%d proxy=%d, want 1/2", local, proxied)
	}
	if misses != 1 {
		t.Fatalf("plan built on %d replicas, want exactly the owner", misses)
	}
}

// TestClusterStatusEndpoint exercises GET /v1/cluster on a live
// cluster and its 404 on a standalone server.
func TestClusterStatusEndpoint(t *testing.T) {
	reps := startCluster(t, 2, 0, 1)
	resp, err := http.Get(reps[1].url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Replica != "r1" || len(st.Members) != 2 {
		t.Fatalf("cluster status: %d %+v", resp.StatusCode, st)
	}
	selfMarked := 0
	for _, m := range st.Members {
		if m.Self {
			selfMarked++
			if m.ID != "r1" {
				t.Fatalf("replica r1 marked %s as self", m.ID)
			}
		}
	}
	if selfMarked != 1 {
		t.Fatalf("%d members marked self", selfMarked)
	}

	standalone, err := server.New(server.Config{Registry: interp.StandardRegistry(2), Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := standalone.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { standalone.Close() })
	resp2, err := http.Get("http://" + standalone.Addr() + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone /v1/cluster: %d, want 404", resp2.StatusCode)
	}
}

// TestUploadReplicatesToPeers: one upload to any replica lands the
// cloud on all of them, so sub-queries never need the 404 re-push path
// in the common case.
func TestUploadReplicatesToPeers(t *testing.T) {
	cloud, gj := isabelCloud(t)
	cj := wireCloudOf(cloud)
	reps := startCluster(t, 3, 0, 1<<30)

	code, body := post(t, reps[1].url+"/v1/clouds", cj)
	if code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	var up server.UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	// Query by cloud_id through every replica with an internal-marked
	// request (forcing local execution): each must already have the
	// cloud resident.
	req := &server.ReconstructRequest{Method: "nearest", CloudID: up.CloudID, Grid: gj,
		Region: server.RegionJSON{Box: &[6]int{0, 0, 0, 2, 2, 2}}}
	b, _ := json.Marshal(req)
	for i, r := range reps {
		hr, err := http.NewRequest(http.MethodPost, r.url+"/v1/reconstruct", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set(cluster.HeaderInternal, "shard")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica %d does not hold the replicated cloud (status %d)", i, resp.StatusCode)
		}
	}
}
