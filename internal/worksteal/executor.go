package worksteal

import (
	"context"
	"errors"

	"threading/internal/sched"
	"threading/internal/tracez"
)

// ErrClosed is returned by SubmitCtx on a closed pool.
var ErrClosed = errors.New("worksteal: pool is closed")

// The methods in this file make *Pool satisfy the shard.Executor
// submission surface, the runtime-neutral interface the shard.Resolver
// routes over. They are thin adapters over RunCtx/ForDAC: the pool's
// help-first join, partitioner, and cancellation semantics all apply
// unchanged.

// ParallelForCtx runs body over every chunk of [lo, hi) under the
// pool's configured partitioner and blocks until the loop completes.
// A grain < 1 selects DefaultGrain. The submitting goroutine joins
// help-first, exactly as with RunCtx.
func (p *Pool) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	if lo >= hi {
		return ctx.Err()
	}
	return p.RunCtx(ctx, func(c *Ctx) {
		c.ForDAC(lo, hi, grain, func(_ *Ctx, l, h int) { body(l, h) })
	})
}

// ParallelReduceCtx runs a chunked reduction over [lo, hi): body folds
// each assigned chunk into that worker's private accumulator (seeded
// with identity), and combine folds the per-worker partials after the
// loop joins. combine must be associative and commutative. On error
// the identity is returned.
func (p *Pool) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	if lo >= hi {
		return identity, ctx.Err()
	}
	r := NewReducer(p, identity, combine)
	err := p.RunCtx(ctx, func(c *Ctx) {
		c.ForDAC(lo, hi, grain, func(cc *Ctx, l, h int) {
			v := r.View(cc)
			*v = body(l, h, *v)
		})
	})
	if err != nil {
		return identity, err
	}
	return r.Value(), nil
}

// StartForCtx starts the region ParallelForCtx would run and returns
// without waiting for it: the region's root task goes onto the pool's
// inbox, where a worker picks it up. The returned handle's Wait joins
// the region help-first (see started.Wait) and reports its first
// failure. Every started region must be waited for, and before Close.
func (p *Pool) StartForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) sched.Join {
	s := p.newStarted(ctx)
	s.push(lo, hi, grain, func(_ *Ctx, l, h int) { body(l, h) })
	return s
}

// StartReduceCtx starts the region ParallelReduceCtx would run and
// returns without waiting for it. Wait returns the folded value, or
// the identity on failure.
func (p *Pool) StartReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) sched.Join {

	s := p.newStarted(ctx)
	s.red = Reducer[float64]{views: newViews(p, identity), identity: identity, combine: combine}
	red := &s.red
	s.push(lo, hi, grain, func(cc *Ctx, l, h int) {
		v := red.View(cc)
		*v = body(l, h, *v)
	})
	return s
}

// started is a loop region started split-phase on a pool. Its root is
// a range task — the same record ForDAC's spawns use — so running it
// on a worker re-enters the partitioner loop exactly as ForDAC would.
type started struct {
	pool *Pool
	reg  *sched.Region
	root frame
	red  Reducer[float64] // zero for a loop without a reduction: its Value is 0
}

func (p *Pool) newStarted(ctx context.Context) *started {
	if p.closed.Load() {
		panic("worksteal: Start on closed pool")
	}
	return &started{pool: p, reg: sched.NewRegion(ctx)}
}

// push enqueues the region's root task on the inbox. An empty range
// enqueues nothing, and Wait returns at once.
func (s *started) push(lo, hi, grain int, body func(*Ctx, int, int)) {
	if lo >= hi {
		return
	}
	p := s.pool
	if grain < 1 {
		grain = DefaultGrain(hi-lo, p.Workers())
	}
	t := p.allocShared()
	t.body, t.lo, t.hi, t.grain, t.lazy = body, lo, hi, grain, p.part == Lazy
	t.parent, t.reg = &s.root, s.reg
	s.root.pending.Store(1)
	p.submit(t)
}

// Wait joins the region help-first: the caller claims a helper slot on
// the pool and runs tasks until the root frame drains. If the worker
// the start woke has not taken the root yet, the caller takes it from
// the inbox itself, so a join never waits on a wake-up. With every
// helper slot busy the caller parks, as RunCtx does.
func (s *started) Wait() (float64, error) {
	p := s.pool
	if s.root.pending.Load() != 0 {
		if hw := p.claimHelper(); hw != nil {
			hw.ring.Record(tracez.KindHelpClaim, int64(hw.id-len(p.workers)), 0)
			hw.syncFrame(&s.root)
			p.releaseHelper(hw)
		} else {
			parkOn(&s.root)
		}
	}
	if err := s.reg.Finish(); err != nil {
		return s.red.identity, err
	}
	return s.red.Value(), nil
}

// SubmitCtx schedules fn as an asynchronous root task and returns
// without waiting for it. The task runs with the full scheduler
// underneath it (it could itself call RunCtx); its completion and
// first failure are observed through Quiesce. The caller must Quiesce
// before Close.
func (p *Pool) SubmitCtx(ctx context.Context, fn func()) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p.async.Add()
	go func() {
		defer p.async.Done()
		p.async.Record(p.RunCtx(ctx, func(*Ctx) { fn() }))
	}()
	return nil
}

// Quiesce blocks until every task submitted with SubmitCtx has
// completed and returns the first failure recorded since the previous
// Quiesce. Synchronous Run/RunCtx calls are unaffected — they already
// join before returning.
func (p *Pool) Quiesce() error { return p.async.Wait() }

// PendingWork reports how many tasks are queued but not yet taken:
// the sum of Len over every worker and helper deque plus the inbox's
// count. It is the signal a least-loaded balancer reads when choosing
// a shard, and the re-check a parking worker makes. It writes nothing,
// and on Chase-Lev deques (the default) it takes no lock either, so
// reading it costs the task path no shared-line traffic; a pool built
// on locked deques takes each deque's lock to read its length. Like
// any snapshot of concurrent deques it may be stale by the time it
// returns.
func (p *Pool) PendingWork() int64 {
	n := p.inboxLen.Load()
	for _, v := range p.victims {
		n += int64(v.dq.Len())
	}
	return n
}
