// Package parallel provides small helpers for data-parallel loops used
// throughout fillvoid: chunked parallel-for over index ranges, bounded
// worker pools, and reduction helpers.
//
// The package is deliberately tiny: every hot loop in the reconstruction
// pipeline (feature extraction, k-NN queries, network inference over
// millions of void locations) is shaped like "apply f to every i in
// [0,n)". For and ForChunked cover that shape with GOMAXPROCS-aware
// fan-out and without per-iteration channel traffic.
package parallel

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fillvoid/internal/telemetry"
)

// loopRecord accumulates one parallel loop invocation's utilization
// data: per-worker busy time vs the wall-clock capacity of the fan-out.
// A nil *loopRecord (telemetry disabled) is a no-op, so the hot path
// pays a single atomic load.
type loopRecord struct {
	reg     *telemetry.Registry
	name    string
	start   time.Time
	busyNS  atomic.Int64
	workers int
}

func startLoop(name string, workers int) *loopRecord {
	reg := telemetry.Default()
	if !reg.Enabled() {
		return nil
	}
	return &loopRecord{reg: reg, name: name, start: time.Now(), workers: workers}
}

// workerStart returns the start instant for one worker's busy window.
func (r *loopRecord) workerStart() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// workerDone folds one worker's busy window into the record.
func (r *loopRecord) workerDone(start time.Time) {
	if r == nil {
		return
	}
	r.busyNS.Add(int64(time.Since(start)))
}

// done publishes the loop's counters: calls, items, busy worker time,
// and the capacity (wall × workers) those workers were given. The
// utilization gauge is the lifetime busy/capacity ratio — a measure of
// how evenly the loop bodies load the fan-out.
func (r *loopRecord) done(items int) {
	if r == nil {
		return
	}
	wall := time.Since(r.start)
	busy := r.busyNS.Load()
	capacity := int64(wall) * int64(r.workers)
	r.reg.Counter(r.name + ".calls").Inc()
	r.reg.Counter(r.name + ".items").Add(int64(items))
	r.reg.Counter(r.name + ".busy_ns").Add(busy)
	r.reg.Counter(r.name + ".capacity_ns").Add(capacity)
	totalBusy := r.reg.Counter(r.name + ".busy_ns").Value()
	totalCap := r.reg.Counter(r.name + ".capacity_ns").Value()
	if totalCap > 0 {
		r.reg.Gauge(r.name + ".utilization").Set(float64(totalBusy) / float64(totalCap))
	}
}

// DefaultWorkers reports the worker count used when a caller passes
// workers <= 0. It honours GOMAXPROCS so tests can pin parallelism.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) across min(workers, n) goroutines.
// If workers <= 0 it uses DefaultWorkers. fn must be safe for concurrent
// invocation on distinct indices. For blocks until all iterations finish.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	rec := startLoop("parallel.for", workers)
	if workers == 1 {
		ws := rec.workerStart()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rec.workerDone(ws)
		rec.done(n)
		return
	}
	// Grab indices in blocks to amortize the atomic; block size keeps
	// roughly 32 blocks per worker for load balance on skewed work.
	block := n / (workers * 32)
	if block < 1 {
		block = 1
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := rec.workerStart()
			defer rec.workerDone(ws)
			for {
				start := int(atomic.AddInt64(&next, int64(block))) - block
				if start >= n {
					return
				}
				end := start + block
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	rec.done(n)
}

// ForChunked runs fn(start, end) over contiguous disjoint chunks covering
// [0, n). Each worker receives at most one chunk; chunk boundaries are
// stable for a given (n, workers) pair, which makes per-chunk scratch
// buffers easy to manage. If workers <= 0 it uses DefaultWorkers.
func ForChunked(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	rec := startLoop("parallel.for_chunked", workers)
	if workers == 1 {
		ws := rec.workerStart()
		fn(0, n)
		rec.workerDone(ws)
		rec.done(n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		go func(s, e int) {
			defer wg.Done()
			ws := rec.workerStart()
			defer rec.workerDone(ws)
			if s < e {
				fn(s, e)
			}
		}(start, end)
	}
	wg.Wait()
	rec.done(n)
}

// ForCtx is the cancellable variant of For: fn(i) runs for every i in
// [0, n) unless the context is cancelled or some fn returns an error
// first. Workers grab index tiles atomically and check for cancellation
// between tiles, so a cancel stops the loop within one tile per worker.
// ForCtx returns the first fn error, else ctx.Err() if the loop was cut
// short, else nil. Iterations already in flight when the loop stops are
// allowed to finish; fn must tolerate the loop not covering all of [0, n).
func ForCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForChunkedCtx(ctx, n, workers, func(start, end int) error {
		for i := start; i < end; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// ForChunkedCtx runs fn(start, end) over contiguous index tiles covering
// [0, n) with context cancellation and early error propagation. Unlike
// ForChunked, tiles are small (about 32 per worker) and claimed
// atomically, so cancellation latency is one tile, not one n/workers
// chunk — callers needing stable per-worker scratch should allocate it
// inside fn per tile. The first fn error cancels the remaining tiles and
// is returned; if the parent context is cancelled first, ctx.Err() is
// returned. A nil return means fn covered all of [0, n).
func ForChunkedCtx(ctx context.Context, n, workers int, fn func(start, end int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	tile := n / (workers * 32)
	if tile < 1 {
		tile = 1
	}
	rec := startLoop("parallel.for_ctx", workers)
	reg := telemetry.Default()
	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce sync.Once
		fnErr   error
		next    int64
		wg      sync.WaitGroup
	)
	body := func() {
		ws := rec.workerStart()
		defer rec.workerDone(ws)
		wctx, wsp := reg.Start(loopCtx, "parallel/worker")
		defer wsp.End()
		for {
			if loopCtx.Err() != nil {
				return
			}
			start := int(atomic.AddInt64(&next, int64(tile))) - tile
			if start >= n {
				return
			}
			end := start + tile
			if end > n {
				end = n
			}
			_, csp := reg.Start(wctx, "parallel/chunk")
			csp.SetAttr("start", strconv.Itoa(start))
			csp.SetAttr("end", strconv.Itoa(end))
			err := fn(start, end)
			if err != nil {
				csp.SetError(err.Error())
			}
			csp.End()
			if err != nil {
				errOnce.Do(func() { fnErr = err })
				cancel()
				return
			}
		}
	}
	if workers == 1 {
		body()
	} else {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				body()
			}()
		}
		wg.Wait()
	}
	rec.done(n)
	if fnErr != nil {
		return fnErr
	}
	return ctx.Err()
}

// Fork runs a and b concurrently and returns when both have finished:
// structured fork-join for recursive divide-and-conquer (the k-d tree
// build) where an index-range loop does not fit. The goroutine is
// accounted like any other parallel-loop worker.
func Fork(a, b func()) {
	rec := startLoop("parallel.fork", 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws := rec.workerStart()
		defer rec.workerDone(ws)
		a()
	}()
	ws := rec.workerStart()
	b()
	rec.workerDone(ws)
	<-done
	rec.done(2)
}
