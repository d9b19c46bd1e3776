package worksteal

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"threading/internal/sched"
)

func sumBody(lo, hi int, acc float64) float64 {
	for i := lo; i < hi; i++ {
		acc += float64(i)
	}
	return acc
}

func add(a, b float64) float64 { return a + b }

func TestStartForAndReduce(t *testing.T) {
	for _, part := range []Partitioner{Eager, Lazy} {
		t.Run(part.String(), func(t *testing.T) {
			p := NewPool(2, WithPartitioner(part))
			defer p.Close()
			ctx := context.Background()
			const n = 10_000
			hits := make([]atomic.Int32, n)
			fj := p.StartForCtx(ctx, 0, n, 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			rj := p.StartReduceCtx(ctx, 0, n, 0, 0, sumBody, add)
			if v, err := fj.Wait(); err != nil || v != 0 {
				t.Fatalf("For Wait = %v, %v; want 0, nil", v, err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("iteration %d ran %d times", i, c)
				}
			}
			if v, err := rj.Wait(); err != nil || v != float64(n*(n-1))/2 {
				t.Fatalf("Reduce Wait = %v, %v; want %v", v, err, float64(n*(n-1))/2)
			}
		})
	}
}

// TestStartJoinTakesRootFromInbox: with the pool's only worker stuck
// in another region, a join must run its own root from the inbox
// rather than wait for the worker.
func TestStartJoinTakesRootFromInbox(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx := context.Background()
	gate := make(chan struct{})
	var entered atomic.Bool
	stuck := p.StartForCtx(ctx, 0, 1, 1, func(_, _ int) {
		entered.Store(true)
		<-gate
	})
	for !entered.Load() { // only the worker can take it: nobody joins it yet
		runtime.Gosched()
	}
	var ran atomic.Int64
	j := p.StartForCtx(ctx, 0, 64, 8, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	if _, err := j.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if ran.Load() != 64 {
		t.Fatalf("joined region covered %d of 64", ran.Load())
	}
	close(gate)
	if _, err := stuck.Wait(); err != nil {
		t.Fatalf("stuck Wait: %v", err)
	}
}

func TestStartFailures(t *testing.T) {
	p := NewPool(2)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := p.StartReduceCtx(ctx, 0, 100, 0, 7, sumBody, add).Wait(); !errors.Is(err, context.Canceled) || v != 7 {
		t.Fatalf("canceled Reduce Wait = %v, %v; want identity 7, context.Canceled", v, err)
	}

	_, err := p.StartForCtx(context.Background(), 0, 100, 1, func(lo, _ int) {
		if lo == 42 {
			panic("boom")
		}
	}).Wait()
	var pe *sched.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("panicking For Wait = %v, want PanicError(boom)", err)
	}

	if _, err := p.StartForCtx(context.Background(), 5, 5, 0, func(_, _ int) {
		t.Error("empty range ran a chunk")
	}).Wait(); err != nil {
		t.Fatalf("empty range Wait = %v", err)
	}

	// The pool is reusable after both failures.
	if v, err := p.StartReduceCtx(context.Background(), 0, 100, 0, 0, sumBody, add).Wait(); err != nil || v != 4950 {
		t.Fatalf("Reduce after failures = %v, %v; want 4950", v, err)
	}
}
