package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/telemetry"
)

// Wire mirrors of the server's public JSON (field tags must match
// internal/server's api.go). cluster cannot import server — server
// imports cluster — so the sub-query client re-declares the handful of
// fields it sends.
type wireGrid struct {
	Dims    [3]int      `json:"dims"`
	Origin  *[3]float64 `json:"origin,omitempty"`
	Spacing *[3]float64 `json:"spacing,omitempty"`
}

type wireRegion struct {
	Box *[6]int `json:"box,omitempty"`
}

type wireRequest struct {
	Method  string     `json:"method"`
	CloudID string     `json:"cloud_id"`
	Grid    wireGrid   `json:"grid"`
	Region  wireRegion `json:"region"`
	Quant   string     `json:"quant,omitempty"`
}

type wireResponse struct {
	Values []float64 `json:"values"`
	Error  string    `json:"error"`
}

type wireCloud struct {
	Name   string       `json:"name,omitempty"`
	Points [][3]float64 `json:"points"`
	Values []float64    `json:"values"`
}

// subQuery is one shard sub-request plus the cloud to re-push if the
// target replica evicted it (uploads are content-addressed, so the
// push is idempotent).
type subQuery struct {
	wireRequest
	cloud *pointcloud.Cloud
}

// Query is the decoded, validated reconstruction the server hands the
// coordinator. Region must be a validated box region for Fanout.
type Query struct {
	Method  string
	Quant   string
	CloudID string
	// Cloud backs the 404 re-upload fallback; the server always has it
	// in hand after resolveCloud.
	Cloud   *pointcloud.Cloud
	Spec    recon.GridSpec
	Region  recon.Region
	KeyHash uint64
}

// FanoutResult is a stitched multi-replica reconstruction.
type FanoutResult struct {
	// Values is the region's output in the same order a single-replica
	// run produces (x-fastest within the box).
	Values []float64
	// Shards is how many sub-boxes actually executed (≤ the configured
	// width when an axis is short).
	Shards int
	// Hedged counts sub-queries that fired a hedge.
	Hedged int
}

// Fanout splits q.Region into width sub-box shards, executes each on a
// replica chosen by walking the ring from the plan key's owner, and
// stitches the shard outputs into one array. Shard i goes to the
// (i mod N)-th replica in the key's ring order, so every replica that
// participates builds (and caches) the same (cloud, spec) plan and
// repeat queries hit warm caches cluster-wide.
func (c *Cluster) Fanout(ctx context.Context, q *Query, width int) (*FanoutResult, error) {
	shards := q.Region.Split(width)
	replicas := c.replicasFor(q.KeyHash, len(c.Members()))
	out := make([]float64, q.Region.Len())
	var hedged atomic.Int64
	c.tel.Counter("cluster.fanout.shards").Add(int64(len(shards)))
	err := parallel.ForCtx(ctx, len(shards), len(shards), func(i int) error {
		vals, didHedge, err := c.runShard(ctx, q, shards[i], replicas, i)
		if didHedge {
			hedged.Add(1)
		}
		if err != nil {
			return fmt.Errorf("shard %d of %d [%d,%d)x[%d,%d)x[%d,%d): %w",
				i+1, len(shards), shards[i].I0, shards[i].I1, shards[i].J0, shards[i].J1,
				shards[i].K0, shards[i].K1, err)
		}
		if len(vals) != shards[i].Len() {
			return fmt.Errorf("shard %d returned %d values, want %d", i+1, len(vals), shards[i].Len())
		}
		// Shards cover disjoint sub-boxes, so concurrent stitches write
		// disjoint dst elements.
		stitch(out, q.Region, vals, shards[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FanoutResult{Values: out, Shards: len(shards), Hedged: int(hedged.Load())}, nil
}

// runShard executes one shard with hedging: the primary replica gets
// hedgeDelay to answer before the same sub-query is raced against the
// next replica on the ring; the first success wins and cancels the
// loser. A primary that fails outright fails over to the backup
// immediately instead of waiting for the timer.
func (c *Cluster) runShard(ctx context.Context, q *Query, shard recon.Region, replicas []Member, i int) ([]float64, bool, error) {
	req := c.subRequest(q, shard)
	primary := replicas[i%len(replicas)]
	backup := replicas[(i+1)%len(replicas)]
	if backup.ID == primary.ID {
		vals, err := c.timedDo(ctx, primary, req)
		return vals, false, err
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		vals   []float64
		err    error
		hedged bool
	}
	var mu sync.Mutex
	var win *result
	record := func(r *result) {
		mu.Lock()
		defer mu.Unlock()
		if win == nil && r.err == nil {
			win = r
			cancel() // first success aborts the other leg
		}
	}
	var pri, bak result
	primaryDone := make(chan struct{})
	parallel.Fork(func() {
		pri.vals, pri.err = c.timedDo(hctx, primary, req)
		// Record before signalling: the hedge leg reads win as soon as
		// primaryDone closes, and must not take a success it has not
		// seen yet for a failure.
		record(&pri)
		close(primaryDone)
	}, func() {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		select {
		case <-primaryDone:
			mu.Lock()
			won := win != nil
			mu.Unlock()
			if won {
				return
			}
			// Primary failed: fail over without waiting out the timer.
		case <-hctx.Done():
			return
		case <-t.C:
		}
		c.tel.Counter("cluster.hedges").Inc()
		bak.hedged = true
		bak.vals, bak.err = c.timedDo(hctx, backup, req)
		record(&bak)
	})
	if win != nil {
		if win.hedged {
			c.tel.Counter("cluster.hedge_wins").Inc()
		}
		return win.vals, bak.hedged, nil
	}
	err := pri.err
	if (err == nil || errors.Is(err, context.Canceled)) && bak.err != nil {
		err = fmt.Errorf("%w (hedge to %s: %v)", pri.err, backup.ID, bak.err)
	}
	if err == nil {
		err = ctx.Err()
	}
	return nil, bak.hedged, err
}

// subRequest builds the wire form of one shard sub-query. Origin and
// spacing ride along explicitly: JSON float64 encoding is shortest
// round-trip, so the replica reconstructs over the bit-identical spec.
func (c *Cluster) subRequest(q *Query, shard recon.Region) *subQuery {
	origin := [3]float64{q.Spec.Origin.X, q.Spec.Origin.Y, q.Spec.Origin.Z}
	spacing := [3]float64{q.Spec.Spacing.X, q.Spec.Spacing.Y, q.Spec.Spacing.Z}
	box := [6]int{shard.I0, shard.J0, shard.K0, shard.I1, shard.J1, shard.K1}
	return &subQuery{
		wireRequest: wireRequest{
			Method:  q.Method,
			CloudID: q.CloudID,
			Grid:    wireGrid{Dims: [3]int{q.Spec.NX, q.Spec.NY, q.Spec.NZ}, Origin: &origin, Spacing: &spacing},
			Region:  wireRegion{Box: &box},
			Quant:   q.Quant,
		},
		cloud: q.Cloud,
	}
}

// timedDo runs one sub-query through the do seam, feeding successful
// latencies to the adaptive hedge-delay tracker.
func (c *Cluster) timedDo(ctx context.Context, m Member, req *subQuery) ([]float64, error) {
	start := time.Now()
	vals, err := c.do(ctx, m, req)
	if err == nil {
		d := time.Since(start)
		c.lat.observe(d)
		c.tel.Histogram("cluster.shard.seconds", nil).Observe(d.Seconds())
	}
	return vals, err
}

// httpDo is the production do seam: POST the sub-query to the replica,
// re-pushing the cloud and retrying once if the replica evicted it.
func (c *Cluster) httpDo(ctx context.Context, m Member, q *subQuery) ([]float64, error) {
	vals, status, errMsg, err := c.postReconstruct(ctx, m, &q.wireRequest)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound && q.cloud != nil && strings.Contains(errMsg, "not in store") {
		if err := c.pushCloud(ctx, m, q.cloud); err != nil {
			return nil, fmt.Errorf("re-pushing cloud: %w", err)
		}
		vals, status, errMsg, err = c.postReconstruct(ctx, m, &q.wireRequest)
		if err != nil {
			return nil, err
		}
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("replica %s: %d %s", m.ID, status, errMsg)
	}
	return vals, nil
}

// postReconstruct issues one internal /v1/reconstruct call and decodes
// either the values or the error envelope.
func (c *Cluster) postReconstruct(ctx context.Context, m Member, req *wireRequest) (vals []float64, status int, errMsg string, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, "", err
	}
	respBody, status, err := c.post(ctx, m, "/v1/reconstruct", internalShard, body)
	if err != nil {
		return nil, 0, "", err
	}
	var wr wireResponse
	if err := json.Unmarshal(respBody, &wr); err != nil {
		return nil, status, "", fmt.Errorf("replica %s: undecodable response: %w", m.ID, err)
	}
	return wr.Values, status, wr.Error, nil
}

// pushCloud uploads a cloud to one replica (content-addressed, so
// repeats are idempotent).
func (c *Cluster) pushCloud(ctx context.Context, m Member, cloud *pointcloud.Cloud) error {
	wc := wireCloud{Name: cloud.Name, Points: make([][3]float64, cloud.Len()), Values: cloud.Values}
	for i, p := range cloud.Points {
		wc.Points[i] = [3]float64{p.X, p.Y, p.Z}
	}
	body, err := json.Marshal(&wc)
	if err != nil {
		return err
	}
	respBody, status, err := c.post(ctx, m, "/v1/clouds", internalReplicate, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("replica %s: %d %s", m.ID, status, respBody)
	}
	c.tel.Counter("cluster.cloud_pushes").Inc()
	return nil
}

// Proxy forwards a whole reconstruction to its owner replica and
// relays the response verbatim (status + body), re-pushing the cloud
// once on an owner-side cloud miss. body is the request re-marshalled
// by the server with cloud_id in place of any inline cloud.
func (c *Cluster) Proxy(ctx context.Context, owner Member, body []byte, cloud *pointcloud.Cloud) (int, []byte, error) {
	respBody, status, err := c.post(ctx, owner, "/v1/reconstruct", internalProxy, body)
	if err != nil {
		return 0, nil, err
	}
	if status == http.StatusNotFound && cloud != nil && bytes.Contains(respBody, []byte("not in store")) {
		if err := c.pushCloud(ctx, owner, cloud); err != nil {
			return 0, nil, fmt.Errorf("re-pushing cloud: %w", err)
		}
		respBody, status, err = c.post(ctx, owner, "/v1/reconstruct", internalProxy, body)
		if err != nil {
			return 0, nil, err
		}
	}
	return status, respBody, nil
}

// ReplicateCloud broadcasts an uploaded cloud's raw JSON to every peer
// so sub-queries land on replicas that already hold it. Best effort:
// failures are counted and logged, not returned — the 404 re-push
// fallback in httpDo covers any replica the broadcast missed.
func (c *Cluster) ReplicateCloud(ctx context.Context, body []byte) (replicated int) {
	self := c.Self()
	var peers []Member
	for _, m := range c.Members() {
		if m.ID != self.ID {
			peers = append(peers, m)
		}
	}
	if len(peers) == 0 {
		return 0
	}
	var ok atomic.Int64
	//lint:allow errdrop: per-peer failures are counted and logged inside the loop body
	parallel.ForCtx(ctx, len(peers), len(peers), func(i int) error {
		respBody, status, err := c.post(ctx, peers[i], "/v1/clouds", internalReplicate, body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%d %s", status, respBody)
		}
		if err != nil {
			c.tel.Counter("cluster.replicate.errors").Inc()
			telemetry.Warnf("cloud replication failed", "peer", peers[i].ID, "error", err.Error())
			return nil // best effort: keep replicating to the others
		}
		ok.Add(1)
		return nil
	})
	return int(ok.Load())
}

// ProxyRequest forwards one request to a specific replica with the
// cluster-internal headers and relays its response verbatim. The
// training endpoints use it to pin job submission, status, and cancel
// calls onto the replica owning the job's cloud.
func (c *Cluster) ProxyRequest(ctx context.Context, m Member, method, path string, body []byte) (int, []byte, error) {
	respBody, status, err := c.request(ctx, m, method, path, internalJobs, body)
	if err != nil {
		return 0, nil, err
	}
	return status, respBody, nil
}

// QueryPeers asks every peer in turn with an internal request and
// returns the first response that is not a 404 (found = true). It backs
// job-status and model lookups for ids that live on another replica:
// the caller cannot derive the owner from the id alone, and peer counts
// are small, so a linear probe is fine.
func (c *Cluster) QueryPeers(ctx context.Context, method, path string) (status int, body []byte, found bool) {
	self := c.Self()
	for _, m := range c.Members() {
		if m.ID == self.ID {
			continue
		}
		respBody, st, err := c.request(ctx, m, method, path, internalJobs, nil)
		if err != nil {
			c.tel.Counter("cluster.peer_query.errors").Inc()
			telemetry.Warnf("peer query failed", "peer", m.ID, "path", path, "error", err.Error())
			continue
		}
		if st == http.StatusNotFound {
			continue
		}
		c.tel.Counter("cluster.peer_query.hits").Inc()
		return st, respBody, true
	}
	return 0, nil, false
}

// post issues one cluster-internal POST with the loop-prevention and
// trace-propagation headers, returning the full response body.
func (c *Cluster) post(ctx context.Context, m Member, path, kind string, body []byte) ([]byte, int, error) {
	return c.request(ctx, m, http.MethodPost, path, kind, body)
}

// request is the shared internal HTTP path: loop-prevention and
// trace-propagation headers, any method, full body back.
func (c *Cluster) request(ctx context.Context, m Member, method, path, kind string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.URL+path, rd)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderInternal, kind)
	req.Header.Set(HeaderReplica, c.Self().ID)
	// Propagate the caller's trace so the replica's spans stitch into
	// the same tree (the server continues an incoming traceparent).
	if tp := telemetry.FromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		//lint:allow errdrop: nothing to do about a failed close of a drained response body
		resp.Body.Close()
	}()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("reading response from %s: %w", m.ID, err)
	}
	return respBody, resp.StatusCode, nil
}
