// Package shard implements sharded multi-pool scheduling: a Resolver
// routes parallel loops, reductions, and task submissions across N
// shards — each an independent worksteal.Pool or forkjoin.Team — via a
// pluggable load balancer. Sharding bounds each steal-contention
// domain to one shard's workers: at high core counts a single
// work-stealing pool serializes chunk distribution through one
// stealing protocol (the contention the reproduced paper's flat-loop
// results foreshadow), whereas N shards steal only among themselves.
//
// The package follows the resolver shape of bxcodec/dbresolver — one
// facade resolving submissions across swappable backends behind
// swappable balancers — transplanted from database connections to
// schedulers. The Resolver is itself an Executor, so resolvers nest.
package shard

import (
	"context"
	"sync"

	"threading/internal/forkjoin"
	"threading/internal/sched"
	"threading/internal/worksteal"
)

// Executor is the runtime-neutral submission surface shared by
// worksteal.Pool, forkjoin.Team, and Resolver. It is the stable
// interface the root threading package re-exports: code written
// against it runs unchanged on a single pool, a single team, or a
// sharded resolver over any mix of the two.
//
// All range arguments are half-open [lo, hi). A grain < 1 selects the
// implementation's default chunking; a grain > 0 requests chunks of at
// most that many iterations (mapped to ForDAC grain on pools and the
// dynamic schedule's chunk size on teams).
type Executor interface {
	// ParallelForCtx runs body once per chunk of [lo, hi) and blocks
	// until the whole loop has completed. Cancellation is observed at
	// chunk boundaries; the first failure (context error or wrapped
	// panic) is returned.
	ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error
	// ParallelReduceCtx is ParallelForCtx with a float64 reduction:
	// body folds each chunk into an accumulator seeded with identity,
	// and combine — which must be associative and commutative — folds
	// the partial results. On error the identity is returned.
	ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
		body func(l, h int, acc float64) float64,
		combine func(a, b float64) float64) (float64, error)
	// SubmitCtx schedules fn to run asynchronously and returns without
	// waiting. Completion and failures are observed through Quiesce.
	SubmitCtx(ctx context.Context, fn func()) error
	// Quiesce blocks until every SubmitCtx task has completed and
	// returns the first failure recorded since the previous Quiesce.
	Quiesce() error
	// Close releases the executor's workers. Callers must Quiesce
	// first; the executor must not be used afterwards.
	Close()
}

// PendingWorker is implemented by executors that report how much work
// is queued in them. The least-loaded balancer folds it into a shard's
// load alongside the Resolver's own in-flight count.
type PendingWorker interface {
	PendingWork() int64
}

// Starter is the optional split-phase form of an Executor's loop
// regions: StartForCtx and StartReduceCtx begin the region
// ParallelForCtx or ParallelReduceCtx would run, return without
// waiting for it, and hand back a join handle whose Wait blocks until
// it completes and reports what the blocking call would have
// returned. The Resolver starts every part but the caller's own this
// way. worksteal.Pool implements it natively, without a goroutine; New
// gives any other executor the goroutine adapter.
type Starter interface {
	StartForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) sched.Join
	StartReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
		body func(l, h int, acc float64) float64,
		combine func(a, b float64) float64) sched.Join
}

// goStarter adapts an executor without a native Starter: each start
// runs the blocking call on a fresh goroutine, and Wait joins it.
type goStarter struct{ ex Executor }

// goJoin is the join handle of one goStarter start.
type goJoin struct {
	wg  sync.WaitGroup
	v   float64
	err error
}

func (j *goJoin) Wait() (float64, error) {
	j.wg.Wait()
	return j.v, j.err
}

func (g goStarter) StartForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) sched.Join {
	j := &goJoin{}
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		j.err = g.ex.ParallelForCtx(ctx, lo, hi, grain, body)
	}()
	return j
}

func (g goStarter) StartReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) sched.Join {

	j := &goJoin{}
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		j.v, j.err = g.ex.ParallelReduceCtx(ctx, lo, hi, grain, identity, body, combine)
	}()
	return j
}

// The three executors of the tentpole contract.
var (
	_ Executor = (*worksteal.Pool)(nil)
	_ Executor = (*forkjoin.Team)(nil)
	_ Executor = (*Resolver)(nil)

	_ PendingWorker = (*worksteal.Pool)(nil)
	_ PendingWorker = (*forkjoin.Team)(nil)
	_ PendingWorker = (*Resolver)(nil)

	_ Starter = (*worksteal.Pool)(nil)
	_ Starter = goStarter{}
)
