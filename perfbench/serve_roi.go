package main

import (
	"context"
	"fmt"
	"time"
)

// serve-roi is the served read path: one client sends small FCNN box
// queries back to back (closed loop) against clouds whose plans were
// built in set-up, so every plan lookup hits. What is left per request
// is decode, admission, span and telemetry bookkeeping, the small
// reconstruction, and encode: the layers a span or wire-format change
// touches.
//
// Every request costs the same on purpose. With half boxes and half
// 256-point lists the two kinds took about 3.9 and 6.6 ms, and the
// median sat on the boundary between them.
//
// The loop is closed so that no load-generator timing enters a
// request's latency: an open loop's generator woke up to a millisecond
// late (p99 lateness 1.05 ms in every run), a third of a request.

// roiQueries distinct box queries are cycled through the window.
const roiQueries = 1000

var roiFracs = []float64{0.005, 0.01, 0.03, 0.05}

type serveROI struct {
	*served
	set *roiSet
}

func setupServeROI(ctx context.Context, e *env, dir string) (_ instance, err error) {
	s, err := bootServed(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = closeOnError(s, err)
		}
	}()
	// 2 timesteps x 4 fractions: 8 clouds, all resident in the caches.
	set, err := newROISet(ctx, s, []int{1, 2}, roiFracs, roiQueries)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 32*e.sc.warmOps; i++ {
		if _, _, err := set.send(ctx, s.cl, i); err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return &serveROI{served: s, set: set}, nil
}

func (s *serveROI) measure(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	h0, m0, e0, err := s.planCache(ctx)
	if err != nil {
		return nil, err
	}
	// first holds each query's first answer; a repeat must match it bit
	// for bit.
	first := make([][]float64, len(s.set.queries))
	wire := 0
	var busy time.Duration
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < e.sc.window; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := e.tr.start("op", 0, i)
		t0 := time.Now()
		resp, w, err := s.set.send(ctx, s.cl, i)
		d := time.Since(t0)
		e.tr.end(sp)
		out.attempted++
		wire += w
		if err != nil {
			out.fail(fmt.Sprintf("request %d", i), err)
			continue
		}
		busy += d
		out.lat = append(out.lat, ms(d))
		got, err := s.set.values(i, resp)
		if err == nil {
			k := i % len(first)
			if first[k] == nil {
				first[k] = got
			} else if err = sameBits(first[k], got); err != nil {
				err = fmt.Errorf("repeat of query %d differs from its first answer: %w", k, err)
			}
		}
		if err != nil {
			out.wrongOutput(fmt.Sprintf("request %d", i), err)
		}
	}
	h1, m1, e1, err := s.planCache(ctx)
	if err != nil {
		return nil, err
	}

	// Every 10th query's first answer is replayed in-process and must
	// match bit for bit; snr_db pools every query's first answer against
	// the truth.
	var truth, got []float64
	for k, vals := range first {
		if vals == nil {
			continue
		}
		if k%replayEvery == 0 {
			if err := s.set.replay(ctx, s.f, k, vals); err != nil {
				out.wrongOutput(fmt.Sprintf("query %d", k), err)
				continue
			}
		}
		truth, got = append(truth, s.set.truth(s.f, k)...), append(got, vals...)
	}
	if out.snr, err = snr(truth, got); err != nil {
		return nil, fmt.Errorf("SNR: %w", err)
	}
	overhead, err := s.overhead(ctx)
	if err != nil {
		return nil, err
	}

	planCacheDelta(out, h0, m0, e0, h1, m1, e1)
	out.extra["ops_per_s"] = float64(len(out.lat)) / busy.Seconds()
	out.extra["wire_kb_per_op"] = float64(wire) / float64(out.attempted) / 1024
	out.extra["server.overhead_ms"] = overhead
	return out, nil
}

// overhead is what serving adds around the engine: up to 32 of the
// queries are sent again, each followed by the same query in-process
// on a warm plan, so both sides see the host at the same moment, and
// the medians are subtracted.
func (s *serveROI) overhead(ctx context.Context) (float64, error) {
	var httpMS, localMS []float64
	for i := 0; i < len(s.set.queries) && len(httpMS) < 32; i += replayEvery {
		t0 := time.Now()
		_, _, err := s.set.send(ctx, s.cl, i)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("sequential request %d: %w", i, err)
		}
		local, err := s.set.local(ctx, s.f, i)
		if err != nil {
			return 0, err
		}
		httpMS = append(httpMS, ms(d))
		localMS = append(localMS, ms(local))
	}
	return median(httpMS) - median(localMS), nil
}

func (s *serveROI) layerInputs(n int) []layerInput {
	var ins []layerInput
	for i := 0; i < n; i++ {
		q := s.set.queries[i%len(s.set.queries)]
		dt := s.set.dts[q.cloud]
		ins = append(ins, layerInput{
			dt: dt, frac: roiFracs[q.cloud%len(roiFracs)], samplerSeed: s.f.seed*1000 + 500 + int64(q.cloud),
			roi: q.region, wire: q.region,
		})
	}
	return ins
}
