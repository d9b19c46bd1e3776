package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is the structured form of a panic recovered inside a
// parallel region, task, thread, or kernel: it wraps the recovered
// value together with the stack of the goroutine that panicked. The
// context-aware entry points of every runtime in this repository
// (Team.ParallelCtx, Pool.RunCtx, Future.GetCtx, ...) surface task
// panics as a *PanicError instead of re-panicking, so callers can
// distinguish "a worker crashed" from "the context was canceled" with
// errors.As.
type PanicError struct {
	// Value is the value the task panicked with.
	Value any
	// Stack is the formatted stack of the panicking goroutine,
	// captured at recovery.
	Stack []byte
}

// NewPanicError wraps a recovered panic value together with the
// calling goroutine's stack. Call it from inside the recovering
// deferred function so the captured stack is the panicking one.
func NewPanicError(v any) *PanicError {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &PanicError{Value: v, Stack: buf}
}

// Error formats the recovered value. The captured stack is available
// via the Stack field (and Format's %+v).
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Format implements fmt.Formatter: %+v appends the captured stack.
func (e *PanicError) Format(f fmt.State, verb rune) {
	if verb == 'v' && f.Flag('+') {
		fmt.Fprintf(f, "panic: %v\n%s", e.Value, e.Stack)
		return
	}
	fmt.Fprint(f, e.Error())
}

// Region is the cancellation and failure state of one blocking
// parallel operation (a parallel region, a pool run, a pipeline run, a
// target region). It folds a context.Context and the operation's own
// failures into one Canceled poll the runtimes make at chunk and task
// boundaries, so every threading model pays the same cancellation cost
// and cross-model timings remain comparable. No goroutine watches the
// context: the poll itself notices a closed Done channel.
//
// A Region records the first failure (context error or recovered
// panic) and trips the canceled flag; later failures are dropped, so
// error propagation is deterministic under races. A Region is valid
// for one blocking call; create it on entry and Finish it on return.
type Region struct {
	canceled atomic.Bool

	mu  sync.Mutex
	err error

	// ctx and done are set only for a context that can be canceled;
	// done is ctx.Done(), read once at creation.
	ctx  context.Context
	done <-chan struct{}

	// traceID is the request id carried by the region's context (see
	// WithRequestID), captured once at region creation so the worker
	// hot paths read a plain field instead of walking a context chain
	// per task. Zero means unattributed.
	traceID int64
}

// NewRegion returns a region bound to ctx. It starts no goroutine, for
// any context. For a context that can never be canceled
// (context.Background, context.TODO, or nil) Canceled only ever
// reports true after a failure is recorded.
func NewRegion(ctx context.Context) *Region {
	r := &Region{}
	if ctx == nil {
		return r
	}
	// Capture the request id before the can-this-cancel check: a
	// value-only context (WithRequestID over Background) has a nil
	// Done but still attributes its region's trace spans.
	r.traceID = RequestIDFrom(ctx)
	done := ctx.Done()
	if done == nil {
		return r
	}
	r.ctx, r.done = ctx, done
	if err := expired(ctx); err != nil {
		// Already expired: trip synchronously.
		r.fail(err)
	}
	return r
}

// TraceID returns the request id captured from the region's context
// at creation, 0 when unattributed. Nil-safe, so instrumentation
// sites can call it on an absent region.
func (r *Region) TraceID() int64 {
	if r == nil {
		return 0
	}
	return r.traceID
}

// Canceled reports whether the region has been canceled — by its
// context or by a recorded failure. For a context that can never be
// canceled it is a single atomic load. For a cancelable one it adds a
// non-blocking receive on the context's Done channel, and the first
// poll that finds the channel closed records ctx.Err() as the
// region's failure. Either way it is cheap enough for per-chunk
// polling in scheduler inner loops, and a cancellation is observed at
// the next chunk or task boundary that polls.
func (r *Region) Canceled() bool {
	if r.canceled.Load() {
		return true
	}
	return r.done != nil && r.pollDone()
}

// pollDone is Canceled's check of a cancelable context, kept out of
// line so Canceled itself stays small enough to inline.
func (r *Region) pollDone() bool {
	select {
	case <-r.done:
		r.fail(r.ctx.Err())
		return true
	default:
		return false
	}
}

// fail records err as the region's failure if it is the first, and
// trips the canceled flag either way.
func (r *Region) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.canceled.Store(true)
}

// RecordPanic records a recovered panic value (with the calling
// goroutine's stack) as the region's failure and cancels the region,
// so sibling chunks and queued tasks stop at their next boundary —
// first-panic-wins propagation.
func (r *Region) RecordPanic(v any) {
	r.fail(NewPanicError(v))
}

// RecordError records err as the region's failure and cancels the
// region. A nil err is ignored.
func (r *Region) RecordError(err error) {
	if err == nil {
		return
	}
	r.fail(err)
}

// Err returns the first recorded failure: a *PanicError, the
// context's error, or nil.
func (r *Region) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Finish returns the first recorded failure. A context that was
// canceled before Finish is reported even if no poll observed it, so
// callers deterministically observe the cancellation; so is a deadline
// that has passed on the wall clock before its timer fired. Finish is
// idempotent.
func (r *Region) Finish() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil && r.ctx != nil {
		if err := expired(r.ctx); err != nil {
			r.err = err
			r.canceled.Store(true)
		}
	}
	return r.err
}

// expired reports why ctx should be treated as dead: its recorded
// error, or DeadlineExceeded when its deadline has passed on the wall
// clock even though the runtime timer has not fired yet. The second
// check matters on a saturated machine (e.g. GOMAXPROCS=1 with every
// worker busy): Go timers fire from the scheduler, so a hot parallel
// region can outrun its own deadline timer by tens of milliseconds —
// region entry and Finish must not depend on timer delivery to
// observe a deadline that has objectively passed.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}
