package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fillvoid/internal/grid"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/server"
	"fillvoid/perfbench/serveproc"
)

// stopTimeout bounds the server's graceful drain at the end of a run.
const stopTimeout = 10 * time.Second

// replayEvery: every replayEvery-th served output is re-run in-process
// and must match bit for bit.
const replayEvery = 10

// served is the part of a set-up every server workload shares: the
// fixture, its model written to disk, a child `fillvoid serve` loaded
// with it, and a client.
type served struct {
	f    *fixture
	proc *serveproc.Proc
	cl   *client
}

func bootServed(ctx context.Context, e *env, dir string, args ...string) (*served, error) {
	f, err := newFixture(e.seed, e.sc.epochs)
	if err != nil {
		return nil, err
	}
	model := filepath.Join(dir, "model.bin")
	if err := f.model.SaveFile(model); err != nil {
		return nil, fmt.Errorf("writing model: %w", err)
	}
	proc, err := serveproc.Start(ctx, e.serverBin, append([]string{"-model", model}, args...), os.Stderr)
	if err != nil {
		return nil, err
	}
	return &served{f: f, proc: proc, cl: newClient(proc.Base)}, nil
}

func (s *served) fixture() *fixture { return s.f }
func (s *served) memPID() string    { return strconv.Itoa(s.proc.Pid()) }

func (s *served) close() error {
	s.cl.close()
	return s.proc.Stop(stopTimeout)
}

// closeOnError stops a half-built set-up's server and returns err.
func closeOnError(s *served, err error) error {
	if cerr := s.close(); cerr != nil {
		return fmt.Errorf("%w (and stopping the server: %v)", err, cerr)
	}
	return err
}

// planCache reads the server's plan-cache counters.
func (s *served) planCache(ctx context.Context) (hits, misses, evictions int64, err error) {
	c, err := s.cl.metricsCounters(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	return c["server.plan_cache.hits"], c["server.plan_cache.misses"], c["server.plan_cache.evictions"], nil
}

// planCacheDelta records the plan-cache hit ratio and evictions between
// two counter readings as extras.
func planCacheDelta(out *outcome, h0, m0, e0, h1, m1, e1 int64) {
	if look := (h1 - h0) + (m1 - m0); look > 0 {
		out.extra["server.plan_cache_hit_ratio"] = float64(h1-h0) / float64(look)
	}
	out.extra["server.plan_cache_evictions"] = float64(e1 - e0)
}

// roiQuery is one serve-roi request: the FCNN over an 8x8x4 box,
// against one of the uploaded clouds.
type roiQuery struct {
	cloud  int
	region recon.Region
	body   []byte
}

// roiSet is a set of sampled clouds uploaded to the server, with a
// seeded schedule of ROI queries against them.
type roiSet struct {
	clouds  []*pointcloud.Cloud
	dts     []int
	plans   []*recon.Plan // in-process plans for replay, built on first use
	queries []roiQuery
}

// newROISet uploads one cloud per (timestep, fraction) pair, generates n
// box queries (box and cloud chosen at random), and warms each cloud's
// plan with two queries.
func newROISet(ctx context.Context, s *served, dts []int, fracs []float64, n int) (*roiSet, error) {
	f := s.f
	r := &roiSet{}
	for _, dt := range dts {
		for _, frac := range fracs {
			k := len(r.clouds)
			c, err := f.sample(dt, frac, f.seed*1000+500+int64(k))
			if err != nil {
				return nil, err
			}
			body, err := cloudBody(c)
			if err != nil {
				return nil, err
			}
			if _, err := s.cl.uploadCloud(ctx, body, recon.HashCloud(c)); err != nil {
				return nil, err
			}
			r.clouds = append(r.clouds, c)
			r.dts = append(r.dts, dt)
		}
	}
	r.plans = make([]*recon.Plan, len(r.clouds))
	query := func(cloud int, region recon.Region) (roiQuery, error) {
		body, err := reconstructBody("fcnn", recon.HashCloud(r.clouds[cloud]), f.spec, region)
		return roiQuery{cloud: cloud, region: region, body: body}, err
	}
	for i := 0; i < n; i++ {
		q, err := query(f.rng.Intn(len(r.clouds)), f.randomBox())
		if err != nil {
			return nil, err
		}
		r.queries = append(r.queries, q)
	}
	for k := range r.clouds {
		for _, region := range []recon.Region{f.randomBox(), f.randomBox()} {
			q, err := query(k, region)
			if err != nil {
				return nil, err
			}
			if _, _, err := s.cl.do(ctx, http.MethodPost, "/v1/reconstruct", q.body); err != nil {
				return nil, fmt.Errorf("warming plan %d: %w", k, err)
			}
		}
	}
	return r, nil
}

// send posts query i (cycling through the schedule).
func (r *roiSet) send(ctx context.Context, cl *client, i int) ([]byte, int, error) {
	return cl.do(ctx, http.MethodPost, "/v1/reconstruct", r.queries[i%len(r.queries)].body)
}

// values decodes the response to query i and checks it holds one value
// per node of the query's box.
func (r *roiSet) values(i int, resp []byte) ([]float64, error) {
	q := r.queries[i%len(r.queries)]
	var rr server.ReconstructResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if len(rr.Values) != q.region.Len() {
		return nil, fmt.Errorf("%d values for a %d-node box", len(rr.Values), q.region.Len())
	}
	return rr.Values, nil
}

// truth returns the ground truth at query i's nodes.
func (r *roiSet) truth(f *fixture, i int) []float64 {
	q := r.queries[i%len(r.queries)]
	return f.truthAt(r.dts[q.cloud], q.region)
}

// replay re-runs query i in-process with the same model, cloud and
// region, and checks the served values match bit for bit.
func (r *roiSet) replay(ctx context.Context, f *fixture, i int, got []float64) error {
	want, err := r.reconstruct(ctx, f, r.queries[i%len(r.queries)])
	if err != nil {
		return err
	}
	if err := sameBits(want.Data, got); err != nil {
		return fmt.Errorf("served output differs from in-process: %w", err)
	}
	return nil
}

// reconstruct runs q in-process on a warm plan of its cloud.
func (r *roiSet) reconstruct(ctx context.Context, f *fixture, q roiQuery) (*grid.Volume, error) {
	if r.plans[q.cloud] == nil {
		p, err := recon.NewPlan(r.clouds[q.cloud], f.spec)
		if err != nil {
			return nil, err
		}
		// Build the lazy parts once, so local times compare with the
		// server's warm plans.
		if _, _, err := p.NearestFor(ctx, recon.Full(f.spec), 0); err != nil {
			return nil, err
		}
		r.plans[q.cloud] = p
	}
	return recon.Reconstruct(ctx, f.model, r.plans[q.cloud], q.region)
}

// local times query i in-process on a warm plan.
func (r *roiSet) local(ctx context.Context, f *fixture, i int) (time.Duration, error) {
	q := r.queries[i%len(r.queries)]
	if _, err := r.reconstruct(ctx, f, q); err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err := r.reconstruct(ctx, f, q)
	return time.Since(t0), err
}
