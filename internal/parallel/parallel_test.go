package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		for _, workers := range []int{0, 1, 3, 16} {
			counts := make([]int32, n)
			For(n, workers, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForChunkedCoversAllIndicesOnce(t *testing.T) {
	f := func(nRaw uint16, wRaw uint8) bool {
		n := int(nRaw) % 5000
		workers := int(wRaw)%20 - 2 // include <= 0
		counts := make([]int32, n)
		ForChunked(n, workers, func(start, end int) {
			if start < 0 || end > n || start > end {
				t.Fatalf("bad chunk [%d,%d) for n=%d", start, end, n)
			}
			for i := start; i < end; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForNegativeN(t *testing.T) {
	called := false
	For(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("For called fn for negative n")
	}
	ForChunked(-5, 4, func(int, int) { called = true })
	if called {
		t.Fatal("ForChunked called fn for negative n")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestForCtxCoversAllIndicesOnce(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{0, 1, 7, 100, 10000} {
		for _, workers := range []int{0, 1, 3, 16} {
			counts := make([]int32, n)
			err := ForCtx(ctx, n, workers, func(i int) error {
				atomic.AddInt32(&counts[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForCtxReturnsFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls int32
		err := ForCtx(context.Background(), 100000, workers, func(i int) error {
			atomic.AddInt32(&calls, 1)
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
		// The error cancels the remaining tiles: most of the range is
		// never visited.
		if c := atomic.LoadInt32(&calls); c >= 100000 {
			t.Fatalf("workers=%d: error did not stop the loop (%d calls)", workers, c)
		}
	}
}

func TestForChunkedCtxCancellation(t *testing.T) {
	// ForChunkedCtx checks the loop's context before each tile, so once
	// cancel() has returned a worker starts at most the one tile it took
	// before its last check: at most workers tiles start after it. Tiles
	// that start while cancel() is still running are not bounded.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var tiles, after int32
		var cancelled atomic.Bool
		err := ForChunkedCtx(ctx, 1<<20, workers, func(start, end int) error {
			if cancelled.Load() {
				atomic.AddInt32(&after, 1)
			}
			if atomic.AddInt32(&tiles, 1) == 2 {
				cancel()
				cancelled.Store(true)
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := atomic.LoadInt32(&after); n > int32(workers) {
			t.Fatalf("workers=%d: %d tiles started after cancel returned", workers, n)
		}
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int32
	err := ForCtx(ctx, 1000, 4, func(i int) error {
		atomic.AddInt32(&calls, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if c := atomic.LoadInt32(&calls); c > 4 {
		t.Fatalf("%d iterations ran on a cancelled context", c)
	}
}

func TestForChunkedCtxTilesCoverDisjointly(t *testing.T) {
	n := 12345
	seen := make([]int32, n)
	err := ForChunkedCtx(context.Background(), n, 7, func(start, end int) error {
		if start < 0 || end > n || start >= end {
			t.Errorf("bad tile [%d,%d)", start, end)
		}
		for i := start; i < end; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

// TestForChunkedStableChunkIndexAssumption pins the contract that
// nn.(*Network).trainBatch builds per-worker scratch on:
// for any (n, workers), ForChunked hands out at most one chunk per
// worker, every chunk starts at a multiple of chunk = ceil(n/workers),
// and therefore start/chunk is a collision-free worker index in
// [0, workers). If the chunking strategy ever changes (work stealing,
// uneven splits, ...), this test fails instead of silently scrambling
// per-worker gradient buffers.
func TestForChunkedStableChunkIndexAssumption(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 100, 4096, 12345} {
		for _, workers := range []int{1, 2, 3, 5, 8, 16, 200} {
			eff := workers
			if eff > n {
				eff = n // ForChunked clamps workers to n
			}
			chunk := (n + eff - 1) / eff
			var calls int32
			seen := make([]int32, eff)
			ForChunked(n, workers, func(start, end int) {
				atomic.AddInt32(&calls, 1)
				if start%chunk != 0 {
					t.Errorf("n=%d workers=%d: chunk start %d not a multiple of %d", n, workers, start, chunk)
					return
				}
				w := start / chunk
				if w < 0 || w >= eff {
					t.Errorf("n=%d workers=%d: derived worker index %d out of [0,%d)", n, workers, w, eff)
					return
				}
				atomic.AddInt32(&seen[w], 1)
			})
			if int(calls) > eff {
				t.Fatalf("n=%d workers=%d: %d chunks for %d workers (want <= 1 per worker)", n, workers, calls, eff)
			}
			for w, c := range seen {
				if c > 1 {
					t.Fatalf("n=%d workers=%d: worker index %d derived by %d chunks", n, workers, w, c)
				}
			}
		}
	}
}

func TestForkRunsBothAndJoins(t *testing.T) {
	var a, b atomic.Int32
	Fork(
		func() { a.Store(1) },
		func() { b.Store(1) },
	)
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatalf("a=%d b=%d after Fork", a.Load(), b.Load())
	}
}

func TestForkNested(t *testing.T) {
	// Recursive fan-out like the k-d tree build: sum 1..n by halving.
	var sum func(lo, hi int) int64
	sum = func(lo, hi int) int64 {
		if hi-lo <= 4 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		}
		mid := (lo + hi) / 2
		var left, right int64
		Fork(
			func() { left = sum(lo, mid) },
			func() { right = sum(mid, hi) },
		)
		return left + right
	}
	n := 1000
	if got, want := sum(0, n), int64(n*(n-1)/2); got != want {
		t.Fatalf("sum=%d want %d", got, want)
	}
}
