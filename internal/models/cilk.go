package models

import (
	"context"
	"fmt"

	"threading/internal/deque"
	"threading/internal/sched"
	"threading/internal/worksteal"
)

// cilkFor is the Cilk Plus loop configuration: cilk_for semantics,
// i.e. recursive divide-and-conquer splitting of the iteration space
// into spawned tasks over the lock-free work-stealing pool. Chunk
// distribution travels through steals — the property the paper blames
// for cilk_for's losses on flat data-parallel loops.
type cilkFor struct {
	pool  *worksteal.Pool
	n     int
	grain int // 0 selects the cilk_for default heuristic
}

// NewCilkFor returns the cilk_for model with the default grain
// heuristic min(2048, ceil(n/8p)) and the paper-faithful eager
// partitioner.
func NewCilkFor(threads int) Model {
	return NewCilkForPartitioner(threads, worksteal.Eager)
}

// newWorkstealPool builds the lock-free pool shared by the cilk
// models from the resolved model options. A nil tracer in cfg leaves
// tracing disabled.
func newWorkstealPool(threads int, cfg config) *worksteal.Pool {
	return worksteal.NewPool(threads,
		worksteal.WithDequeKind(deque.KindChaseLev),
		worksteal.WithPartitioner(cfg.partitioner),
		worksteal.WithTracer(cfg.tracer),
		worksteal.WithPinnedWorkers(cfg.pinned))
}

// NewCilkForPartitioner returns a cilk_for model whose loops are
// decomposed by the given partitioner — worksteal.Eager for the
// paper's up-front divide-and-conquer, worksteal.Lazy for
// demand-driven splitting.
func NewCilkForPartitioner(threads int, part worksteal.Partitioner) Model {
	return &cilkFor{pool: newWorkstealPool(threads, config{partitioner: part}), n: threads}
}

// NewCilkForGrain returns a cilk_for model with a fixed grain size,
// for the grain-size ablation benchmark.
func NewCilkForGrain(threads, grain int) Model {
	m := NewCilkFor(threads).(*cilkFor)
	m.grain = grain
	return m
}

// NewCilkForGrainPartitioner returns a cilk_for model with both a
// fixed grain size and a partitioner — the configuration surface of
// the loop-distribution benchmark, which contrasts eager and lazy
// decomposition at a distribution-stressing grain.
func NewCilkForGrainPartitioner(threads, grain int, part worksteal.Partitioner) Model {
	m := NewCilkForPartitioner(threads, part).(*cilkFor)
	m.grain = grain
	return m
}

func (m *cilkFor) Name() string { return CilkFor }
func (m *cilkFor) Threads() int { return m.n }

func (m *cilkFor) ParallelFor(n int, body func(lo, hi int)) {
	mustRun(m.ParallelForCtx(context.Background(), n, body))
}

func (m *cilkFor) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		c.ForDAC(0, n, m.grain, func(_ *worksteal.Ctx, l, h int) { body(l, h) })
	})
}

func (m *cilkFor) ParallelReduce(n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) float64 {

	v, err := m.ParallelReduceCtx(context.Background(), n, identity, body, combine)
	mustRun(err)
	return v
}

func (m *cilkFor) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	r := worksteal.NewReducer(m.pool, identity, combine)
	err := m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		c.ForDAC(0, n, m.grain, func(cc *worksteal.Ctx, l, h int) {
			v := r.View(cc)
			*v = body(l, h, *v)
		})
	})
	if err != nil {
		return identity, err
	}
	return r.Value(), nil
}

func (m *cilkFor) SupportsTasks() bool { return false }

func (m *cilkFor) TaskRun(func(TaskScope)) {
	panic("models: cilk_for is a loop model; use cilk_spawn for task parallelism")
}

func (m *cilkFor) TaskRunCtx(context.Context, func(TaskScope)) error {
	return fmt.Errorf("models: %s: %w", CilkFor, ErrTasksUnsupported)
}

func (m *cilkFor) SchedulerStats() (sched.Snapshot, bool) { return m.pool.Stats(), true }

func (m *cilkFor) ResetSchedulerStats() { m.pool.ResetStats() }

func (m *cilkFor) Close() { m.pool.Close() }

// cilkSpawn is the Cilk Plus tasking configuration: cilk_spawn /
// cilk_sync over lock-free Chase-Lev deques. For flat loops it spawns
// one task per manual chunk (the paper's task versions of the data
// kernels); for recursion it exposes spawn/sync directly.
type cilkSpawn struct {
	pool *worksteal.Pool
	n    int
}

// NewCilkSpawn returns the cilk_spawn model.
func NewCilkSpawn(threads int) Model {
	return NewCilkSpawnPartitioner(threads, worksteal.Eager)
}

// NewCilkSpawnPartitioner returns a cilk_spawn model whose pool is
// configured with the given partitioner. The model's own flat loops
// use manual chunked spawns, so the partitioner only affects task
// bodies that call back into ForDAC-based helpers; it is accepted here
// so a harness can configure every work-stealing model uniformly.
func NewCilkSpawnPartitioner(threads int, part worksteal.Partitioner) Model {
	return &cilkSpawn{pool: newWorkstealPool(threads, config{partitioner: part}), n: threads}
}

// NewCilkSpawnWithDeque returns a cilk_spawn model over the given
// deque kind — the Chase-Lev vs locked-deque ablation that isolates
// the paper's explanation for Fig. 5.
func NewCilkSpawnWithDeque(threads int, kind deque.Kind) Model {
	return &cilkSpawn{
		pool: worksteal.NewPool(threads, worksteal.WithDequeKind(kind)),
		n:    threads,
	}
}

func (m *cilkSpawn) Name() string { return CilkSpawn }
func (m *cilkSpawn) Threads() int { return m.n }

func (m *cilkSpawn) ParallelFor(n int, body func(lo, hi int)) {
	mustRun(m.ParallelForCtx(context.Background(), n, body))
}

func (m *cilkSpawn) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	k := m.n
	return m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		for i := 0; i < k; i++ {
			lo, hi := chunkFor(n, k, i)
			if lo >= hi {
				continue
			}
			c.Spawn(func(*worksteal.Ctx) { body(lo, hi) })
		}
		c.Sync()
	})
}

func (m *cilkSpawn) ParallelReduce(n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) float64 {

	v, err := m.ParallelReduceCtx(context.Background(), n, identity, body, combine)
	mustRun(err)
	return v
}

func (m *cilkSpawn) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	k := m.n
	partials := make([]float64, k)
	err := m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		for i := 0; i < k; i++ {
			i := i
			lo, hi := chunkFor(n, k, i)
			partials[i] = identity
			if lo >= hi {
				continue
			}
			c.Spawn(func(*worksteal.Ctx) { partials[i] = body(lo, hi, identity) })
		}
		c.Sync()
	})
	if err != nil {
		return identity, err
	}
	acc := identity
	for _, p := range partials {
		acc = combine(acc, p)
	}
	return acc, nil
}

func (m *cilkSpawn) SupportsTasks() bool { return true }

func (m *cilkSpawn) TaskRun(root func(TaskScope)) {
	mustRun(m.TaskRunCtx(context.Background(), root))
}

func (m *cilkSpawn) TaskRunCtx(ctx context.Context, root func(TaskScope)) error {
	return m.pool.RunCtx(ctx, func(c *worksteal.Ctx) {
		root((*worksteal.Scope)(c))
		// The pool's implicit sync at task return joins stragglers.
	})
}

func (m *cilkSpawn) SchedulerStats() (sched.Snapshot, bool) { return m.pool.Stats(), true }

func (m *cilkSpawn) ResetSchedulerStats() { m.pool.ResetStats() }

func (m *cilkSpawn) Close() { m.pool.Close() }
