package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"time"
)

// clusterScenario boots three replicas joined by -peers plus one
// standalone reference server, uploads the same cloud to both, and
// requires a full-grid reconstruction through one replica (large
// enough to fan out across the cluster) to equal the standalone answer
// bit for bit. It also checks that /v1/cluster reports the members and
// the fan-out.
func clusterScenario(ctx context.Context, h *harness) error {
	// -peers needs every replica's URL before any of them boots, so
	// reserve three free ports up front. The tiny window between
	// closing the probe listener and serve re-binding is acceptable
	// for a smoke test.
	ports, err := freePorts(3)
	if err != nil {
		return err
	}
	var peers []string
	for i, port := range ports {
		peers = append(peers, fmt.Sprintf("r%d=http://127.0.0.1:%d", i, port))
	}
	var replicas []string
	for i, port := range ports {
		p, err := h.start(ctx, fmt.Sprintf("replica r%d", i),
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-peers", strings.Join(peers, ","),
			"-replica-id", fmt.Sprintf("r%d", i),
			"-shard-threshold", "1024")
		if err != nil {
			return err
		}
		replicas = append(replicas, p.Base)
	}
	// Standalone reference: same engine, no cluster.
	ref, err := h.start(ctx, "reference server")
	if err != nil {
		return err
	}

	pts := randomCloud(7, 400, func(x, y, z float64) float64 { return x*x + 2*y - 0.5*z })
	cloudID, err := upload(ctx, replicas[0], pts)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	refID, err := upload(ctx, ref.Base, pts)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if cloudID != refID {
		return fmt.Errorf("content-addressed IDs diverged: cluster %s vs reference %s", cloudID, refID)
	}
	fmt.Printf("smoke cluster: uploaded cloud %s to 3 replicas and the reference\n", cloudID)

	// 16x16x8 = 2048 grid points: over the 1024 threshold, so the
	// coordinator fans this out across the replicas.
	req := map[string]any{"method": "shepard", "cloud_id": cloudID, "grid": grid16}
	var want, got reconstruction
	if err := call(ctx, ref.Base+"/v1/reconstruct", req, &want); err != nil {
		return fmt.Errorf("reference reconstruct: %w", err)
	}
	if err := call(ctx, replicas[0]+"/v1/reconstruct", req, &got); err != nil {
		return fmt.Errorf("cluster reconstruct: %w", err)
	}
	if got.Shards < 2 {
		return fmt.Errorf("cluster reconstruct reported %d shards, want >= 2", got.Shards)
	}
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("cluster returned %d values, reference %d", len(got.Values), len(want.Values))
	}
	for i, v := range got.Values {
		if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
			return fmt.Errorf("value[%d]: cluster %v != reference %v", i, v, want.Values[i])
		}
	}
	fmt.Printf("smoke cluster: %d-shard fan-out bit-identical to the standalone reference (%d values)\n",
		got.Shards, len(got.Values))

	var st struct {
		Members  []struct{ ID string } `json:"members"`
		Counters map[string]int64      `json:"counters"`
	}
	if err := call(ctx, replicas[0]+"/v1/cluster", nil, &st); err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	if len(st.Members) != 3 {
		return fmt.Errorf("/v1/cluster reports %d members, want 3", len(st.Members))
	}
	if st.Counters["cluster.route.fanout"] < 1 {
		return fmt.Errorf("/v1/cluster counters show no fan-out: %v", st.Counters)
	}
	fmt.Printf("smoke cluster: /v1/cluster ok (3 members, fanout=%d, hedges=%d)\n",
		st.Counters["cluster.route.fanout"], st.Counters["cluster.hedges"])

	for _, c := range h.children {
		if err := c.stop(10 * time.Second); err != nil {
			return err
		}
	}
	return nil
}

// freePorts reserves n distinct TCP ports on loopback and releases
// them for the replicas to re-bind.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close() // released on return, for the replica to re-bind
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}
