package sched

import "sync"

// AsyncGroup tracks fire-and-forget submissions for an executor's
// Quiesce: each background submission brackets itself with Add/Done,
// records its failure (if any) with Record, and Wait blocks until the
// in-flight count drains, returning the first recorded error.
//
// The zero AsyncGroup is ready to use.
type AsyncGroup struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	err      error
}

// Add registers one in-flight submission.
func (g *AsyncGroup) Add() {
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
}

// Done retires one in-flight submission, waking waiters when the count
// reaches zero.
func (g *AsyncGroup) Done() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 && g.cond != nil {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Record stores err as the group's failure unless one is already
// recorded. A nil err is ignored.
func (g *AsyncGroup) Record(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// Wait blocks until every in-flight submission has retired, then
// returns the first recorded error and clears it, so each quiesce
// interval reports its own failures.
func (g *AsyncGroup) Wait() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inflight > 0 {
		if g.cond == nil {
			g.cond = sync.NewCond(&g.mu)
		}
		g.cond.Wait()
	}
	err := g.err
	g.err = nil
	return err
}

// Join is the completion handle of a loop region started without
// blocking (shard.Starter). Wait blocks until the region has completed
// and returns its reduction value and first failure: the identity on
// failure, and 0 for a loop without a reduction. Wait must be called
// exactly once.
type Join interface {
	Wait() (float64, error)
}

// TaskScope lets a task spawn and join children, independent of the
// runtime underneath. Spawn and Sync must only be called by the task
// that owns the scope. The two task runtimes implement it natively
// (worksteal.Scope and forkjoin.Scope): the scope is the executing
// task's own context, so a spawn through it allocates nothing beyond
// the caller's closure.
type TaskScope interface {
	// Spawn schedules fn as a child task; fn receives its own scope.
	Spawn(fn func(TaskScope))
	// Sync blocks until all children spawned through this scope have
	// completed.
	Sync()
}
