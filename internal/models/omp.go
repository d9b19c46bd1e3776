package models

import (
	"context"
	"fmt"

	"threading/internal/forkjoin"
	"threading/internal/sched"
)

// ompFor is the OpenMP work-sharing configuration: a persistent
// fork-join team distributes loop iterations with the static schedule
// (the paper applies static scheduling across all models for the
// data-parallel comparison).
type ompFor struct {
	team *forkjoin.Team
	n    int
}

// NewOMPFor returns the omp_for model: fork-join work-sharing data
// parallelism on a persistent team.
func NewOMPFor(threads int) Model {
	return &ompFor{team: forkjoin.NewTeam(threads), n: threads}
}

// NewOMPForWithOptions is NewOMPFor with explicit runtime options,
// for ablation benchmarks (e.g. central vs sense-reversing barrier).
func NewOMPForWithOptions(threads int, opts ...forkjoin.Option) Model {
	return &ompFor{team: forkjoin.NewTeam(threads, opts...), n: threads}
}

func (m *ompFor) Name() string { return OMPFor }
func (m *ompFor) Threads() int { return m.n }

func (m *ompFor) ParallelFor(n int, body func(lo, hi int)) {
	mustRun(m.ParallelForCtx(context.Background(), n, body))
}

func (m *ompFor) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.ForRangeNoWait(m.team.DefaultSchedule(), 0, n, body)
		// The region's end barrier is the loop's implicit barrier.
	})
}

// Scheduler is the extra surface of the omp_for model: work-sharing
// with an explicit schedule, for the schedule ablation benchmarks.
// Obtain it by type-asserting the Model returned by NewOMPFor.
type Scheduler interface {
	Schedule(s forkjoin.Schedule, n int, body func(lo, hi int))
}

// Schedule exposes work-sharing with an explicit schedule, used by the
// schedule ablation benchmarks. It is specific to the omp_for model.
func (m *ompFor) Schedule(s forkjoin.Schedule, n int, body func(lo, hi int)) {
	m.team.Parallel(func(tc *forkjoin.Ctx) {
		tc.ForRangeNoWait(s, 0, n, body)
	})
}

func (m *ompFor) ParallelReduce(n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) float64 {

	v, err := m.ParallelReduceCtx(context.Background(), n, identity, body, combine)
	mustRun(err)
	return v
}

func (m *ompFor) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	var result float64
	err := m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		r := tc.ReduceFloat64(m.team.DefaultSchedule(), 0, n, identity, body, combine)
		tc.Master(func() { result = r })
	})
	if err != nil {
		return identity, err
	}
	return result, nil
}

func (m *ompFor) SupportsTasks() bool { return false }

func (m *ompFor) TaskRun(func(TaskScope)) {
	panic("models: omp_for is a work-sharing model; use omp_task for task parallelism")
}

func (m *ompFor) TaskRunCtx(context.Context, func(TaskScope)) error {
	return fmt.Errorf("models: %s: %w", OMPFor, ErrTasksUnsupported)
}

func (m *ompFor) SchedulerStats() (sched.Snapshot, bool) { return m.team.Stats(), true }

func (m *ompFor) ResetSchedulerStats() { m.team.ResetStats() }

func (m *ompFor) Close() { m.team.Close() }

// ompTask is the OpenMP tasking configuration: the master member
// creates explicit tasks (one per manual chunk for loops, one per
// spawn for recursion) that are scheduled over lock-based per-member
// deques, modelling the Intel OpenMP task runtime.
type ompTask struct {
	team *forkjoin.Team
	n    int
}

// NewOMPTask returns the omp_task model.
func NewOMPTask(threads int) Model {
	return &ompTask{team: forkjoin.NewTeam(threads), n: threads}
}

// NewOMPTaskWithOptions is NewOMPTask with explicit runtime options,
// for ablations (e.g. lock-free task deques, immediate task policy).
func NewOMPTaskWithOptions(threads int, opts ...forkjoin.Option) Model {
	return &ompTask{team: forkjoin.NewTeam(threads, opts...), n: threads}
}

func (m *ompTask) Name() string { return OMPTask }
func (m *ompTask) Threads() int { return m.n }

func (m *ompTask) ParallelFor(n int, body func(lo, hi int)) {
	mustRun(m.ParallelForCtx(context.Background(), n, body))
}

func (m *ompTask) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	k := m.n
	return m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.Master(func() {
			for i := 0; i < k; i++ {
				lo, hi := chunkFor(n, k, i)
				if lo >= hi {
					continue
				}
				tc.Task(func(*forkjoin.Ctx) { body(lo, hi) })
			}
			tc.Taskwait()
		})
	})
}

func (m *ompTask) ParallelReduce(n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) float64 {

	v, err := m.ParallelReduceCtx(context.Background(), n, identity, body, combine)
	mustRun(err)
	return v
}

func (m *ompTask) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	k := m.n
	partials := make([]float64, k)
	err := m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.Master(func() {
			for i := 0; i < k; i++ {
				i := i
				lo, hi := chunkFor(n, k, i)
				partials[i] = identity
				if lo >= hi {
					continue
				}
				tc.Task(func(*forkjoin.Ctx) { partials[i] = body(lo, hi, identity) })
			}
			tc.Taskwait()
		})
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

func (m *ompTask) SupportsTasks() bool { return true }

func (m *ompTask) TaskRun(root func(TaskScope)) {
	mustRun(m.TaskRunCtx(context.Background(), root))
}

func (m *ompTask) TaskRunCtx(ctx context.Context, root func(TaskScope)) error {
	return m.team.ParallelCtx(ctx, func(tc *forkjoin.Ctx) {
		tc.Master(func() {
			root((*forkjoin.Scope)(tc))
			tc.Taskwait()
		})
	})
}

func (m *ompTask) SchedulerStats() (sched.Snapshot, bool) { return m.team.Stats(), true }

func (m *ompTask) ResetSchedulerStats() { m.team.ResetStats() }

func (m *ompTask) Close() { m.team.Close() }
