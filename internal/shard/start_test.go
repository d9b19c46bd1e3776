package shard

// Contract tests for the Resolver's split-phase dispatch: parts 1..k-1
// are started on their shards and joined after the caller's own part.
// Each contract runs on pool shards, which start natively, and on team
// shards, which go through the goroutine adapter.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"threading/internal/forkjoin"
	"threading/internal/sched"
	"threading/internal/worksteal"
)

func TestPartsCapsAtGrain(t *testing.T) {
	for _, tc := range []struct{ n, grain, shards, want int }{
		{4096, 0, 2, 2},  // default chunking: one part per shard
		{3, 0, 4, 3},     // never more parts than iterations
		{1, 0, 4, 1},     // a single iteration is a single part
		{4096, 64, 4, 4}, // plenty of grains per shard
		{100, 64, 2, 1},  // two parts would drop below grain
		{128, 64, 2, 2},  // exactly one grain per part
		{200, 64, 8, 3},  // capped at n/grain
		{10, 100, 3, 1},  // grain above n: one part
		{1000, 1, 3, 3},
	} {
		k := parts(tc.n, tc.grain, tc.shards)
		if k != tc.want {
			t.Errorf("parts(%d, %d, %d) = %d, want %d", tc.n, tc.grain, tc.shards, k, tc.want)
			continue
		}
		covered := 0
		for i := 0; i < k; i++ {
			l, h := cut(0, tc.n, k, i)
			if tc.grain > 0 && k > 1 && h-l < tc.grain {
				t.Errorf("n=%d grain=%d: part %d has %d iterations, below grain", tc.n, tc.grain, i, h-l)
			}
			covered += h - l
		}
		if covered != tc.n {
			t.Errorf("n=%d: %d parts cover %d iterations", tc.n, k, covered)
		}
	}
}

// backends lists the two shard families: pools start natively, teams
// start through the goroutine adapter.
var backends = []struct {
	name   string
	shard  func() Executor
	native bool
}{
	{"pool", func() Executor { return worksteal.NewPool(2) }, true},
	{"team", func() Executor { return forkjoin.NewTeam(2) }, false},
}

func newBackendResolver(t *testing.T, mk func() Executor, shards int) *Resolver {
	t.Helper()
	execs := make([]Executor, shards)
	for i := range execs {
		execs[i] = mk()
	}
	r, err := New(WithBalancer(RoundRobin()), WithShards(execs...))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestStarterSelection(t *testing.T) {
	for _, b := range backends {
		h := newHandle(0, b.shard())
		_, adapted := h.start.(goStarter)
		if adapted == b.native {
			t.Errorf("%s shard: goroutine adapter = %v, want %v", b.name, adapted, !b.native)
		}
		h.exec.Close()
	}
}

// checkIdle asserts every shard's reservations were returned.
func checkIdle(t *testing.T, r *Resolver) {
	t.Helper()
	for _, h := range r.shards() {
		if n := h.inflight.Load(); n != 0 {
			t.Fatalf("shard %d holds %d reservations after the call returned", h.id, n)
		}
	}
}

func sumTo(lo, hi int, acc float64) float64 {
	for i := lo; i < hi; i++ {
		acc += float64(i)
	}
	return acc
}

func plus(a, b float64) float64 { return a + b }

func TestStartPathCoversExactlyOnce(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newBackendResolver(t, b.shard, 3)
			defer r.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, grain := range []int{0, 1, 7, 64} {
				const n = 5000
				hits := make([]atomic.Int32, n)
				if err := r.ParallelForCtx(ctx, 0, n, grain, func(l, h int) {
					for i := l; i < h; i++ {
						hits[i].Add(1)
					}
				}); err != nil {
					t.Fatalf("grain %d: ParallelForCtx: %v", grain, err)
				}
				for i := range hits {
					if c := hits[i].Load(); c != 1 {
						t.Fatalf("grain %d: iteration %d executed %d times", grain, i, c)
					}
				}
				got, err := r.ParallelReduceCtx(ctx, 0, n, grain, 0, sumTo, plus)
				if err != nil || got != float64(n*(n-1))/2 {
					t.Fatalf("grain %d: reduce = %v, %v; want %v", grain, got, err, float64(n*(n-1))/2)
				}
			}
			checkIdle(t, r)
		})
	}
}

func TestStartPathFirstFailureWins(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newBackendResolver(t, b.shard, 2)
			defer r.Close()
			ctx := context.Background()
			const n = 1000

			// A panic in a started part (the upper half) is the call's
			// error, and the reduction reports the identity.
			v, err := r.ParallelReduceCtx(ctx, 0, n, 10, -1, func(l, h int, acc float64) float64 {
				if l <= 900 && 900 < h {
					panic("part one")
				}
				return sumTo(l, h, acc)
			}, plus)
			var pe *sched.PanicError
			if !errors.As(err, &pe) || pe.Value != "part one" || v != -1 {
				t.Fatalf("reduce = %v, %v; want identity -1 and PanicError(part one)", v, err)
			}

			// Every part fails: exactly one failure surfaces, the
			// inline part's, which comes first in part order.
			err = r.ParallelForCtx(ctx, 0, n, 10, func(l, _ int) {
				if l < n/2 {
					panic("part zero")
				}
				panic("part one")
			})
			if !errors.As(err, &pe) || pe.Value != "part zero" {
				t.Fatalf("all parts panic: err = %v, want PanicError(part zero)", err)
			}

			// A plain error from the context wins over nothing.
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if err := r.ParallelForCtx(cctx, 0, n, 10, func(_, _ int) {}); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
			}

			checkIdle(t, r)
			if got, err := r.ParallelReduceCtx(ctx, 0, n, 10, 0, sumTo, plus); err != nil || got != float64(n*(n-1))/2 {
				t.Fatalf("reduce after failures = %v, %v", got, err)
			}
		})
	}
}

func TestStartPathCancelDrainsAndReuses(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			r := newBackendResolver(t, b.shard, 2)
			defer r.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var chunks, live atomic.Int64
			err := r.ParallelForCtx(ctx, 0, 1<<14, 4, func(_, _ int) {
				live.Add(1)
				if chunks.Add(1) == 64 {
					cancel()
				}
				time.Sleep(10 * time.Microsecond)
				live.Add(-1)
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Drained: no chunk is running now, and none starts later.
			if n := live.Load(); n != 0 {
				t.Fatalf("%d chunks still running after return", n)
			}
			ran := chunks.Load()
			if ran >= (1<<14)/4 {
				t.Fatalf("cancel skipped nothing: %d chunks ran", ran)
			}
			time.Sleep(5 * time.Millisecond)
			if chunks.Load() != ran {
				t.Fatalf("chunks ran after the call returned: %d then %d", ran, chunks.Load())
			}
			checkIdle(t, r)

			// Reusable: a fresh call covers its range exactly once.
			var covered atomic.Int64
			if err := r.ParallelForCtx(context.Background(), 0, 4096, 16, func(l, h int) {
				covered.Add(int64(h - l))
			}); err != nil || covered.Load() != 4096 {
				t.Fatalf("after cancel: err %v, covered %d of 4096", err, covered.Load())
			}
		})
	}
}

// TestResolverRegionStartsNoGoroutine runs a 2-shard pool region whose
// two chunks meet at a barrier, and counts goroutines while both are
// inside it: part 0 runs on the caller and part 1 on a shard worker,
// so the count is the caller's goroutine over the baseline — no part
// goroutine and no context watcher.
func TestResolverRegionStartsNoGoroutine(t *testing.T) {
	r, err := New(WithBalancer(LeastLoaded()), WithShards(worksteal.NewPool(1), worksteal.NewPool(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	x := make([]float64, 4096)
	for i := 0; i < 100; i++ { // settle the workers
		_, _ = r.ParallelReduceCtx(ctx, 0, len(x), 0, 0, sumTo, plus)
	}

	regions := map[string]func(body func()) error{
		"for": func(body func()) error {
			return r.ParallelForCtx(ctx, 0, 2, 1, func(_, _ int) { body() })
		},
		"reduce": func(body func()) error {
			_, err := r.ParallelReduceCtx(ctx, 0, 2, 1, 0, func(_, _ int, acc float64) float64 {
				body()
				return acc
			}, plus)
			return err
		},
	}
	for name, region := range regions {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var arrived atomic.Int32
			var inside atomic.Int64
			done := make(chan error)
			go func() {
				done <- region(func() {
					arrived.Add(1)
					for arrived.Load() < 2 {
						runtime.Gosched()
					}
					inside.CompareAndSwap(0, int64(runtime.NumGoroutine()))
					arrived.Add(1)
					for arrived.Load() < 4 {
						runtime.Gosched()
					}
				})
			}()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := inside.Load(); got > int64(base+1) {
				t.Fatalf("%d goroutines inside the region, want at most %d (baseline %d + the caller)", got, base+1, base)
			}
		})
	}
}

// regionAllocs is the average allocation count of one call, after
// warm-up.
func regionAllocs(call func()) float64 {
	for i := 0; i < 200; i++ {
		call()
	}
	return testing.AllocsPerRun(500, call)
}

// TestResolverRegionAllocs pins the Resolver's own allocation cost: a
// 1-shard Resolver region allocates what the bare pool region does,
// and a 2-shard one no more than two pool regions.
func TestResolverRegionAllocs(t *testing.T) {
	x := make([]float64, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	forCall := func(ex Executor) func() {
		return func() { _ = ex.ParallelForCtx(ctx, 0, len(x), 0, func(_, _ int) {}) }
	}
	reduceCall := func(ex Executor) func() {
		return func() {
			_, _ = ex.ParallelReduceCtx(ctx, 0, len(x), 0, 0, func(l, h int, acc float64) float64 {
				for i := l; i < h; i++ {
					acc += x[i]
				}
				return acc
			}, plus)
		}
	}
	pool := worksteal.NewPool(1)
	defer pool.Close()
	for _, bal := range []Balancer{RoundRobin(), LeastLoaded()} {
		s1, err1 := New(WithBalancer(bal), WithShards(worksteal.NewPool(1)))
		s2, err2 := New(WithBalancer(bal), WithShards(worksteal.NewPool(1), worksteal.NewPool(1)))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for kind, call := range map[string]func(Executor) func(){"for": forCall, "reduce": reduceCall} {
			bare := regionAllocs(call(pool))
			if one := regionAllocs(call(s1)); one != bare {
				t.Errorf("%s %s: 1-shard Resolver region allocates %v, bare pool region %v", bal.Name(), kind, one, bare)
			}
			if two := regionAllocs(call(s2)); two > 2*bare {
				t.Errorf("%s %s: 2-shard Resolver region allocates %v, more than two pool regions (%v)", bal.Name(), kind, two, 2*bare)
			}
		}
		s1.Close()
		s2.Close()
	}
}
