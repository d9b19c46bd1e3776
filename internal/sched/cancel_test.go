package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRegionBackgroundNeverCancels(t *testing.T) {
	r := NewRegion(context.Background())
	if r.Canceled() {
		t.Fatal("background region born canceled")
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish = %v, want nil", err)
	}
}

func TestRegionNilContext(t *testing.T) {
	r := NewRegion(nil)
	if r.Canceled() || r.Finish() != nil {
		t.Fatal("nil-context region should be inert")
	}
}

func TestRegionObservesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRegion(ctx)
	if r.Canceled() {
		t.Fatal("canceled before cancel")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !r.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("region never observed cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// The observing poll recorded the error; Finish only reads it.
	if err := r.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after poll = %v, want context.Canceled", err)
	}
	if err := r.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish = %v, want context.Canceled", err)
	}
}

func TestRegionExpiredContextTripsSynchronously(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRegion(ctx)
	if !r.Canceled() {
		t.Fatal("already-expired context did not trip the region")
	}
	if err := r.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish = %v, want context.Canceled", err)
	}
}

func TestRegionDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	r := NewRegion(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for !r.Canceled() {
		if time.Now().After(deadline) {
			t.Fatal("deadline never tripped the region")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after poll = %v, want context.DeadlineExceeded", err)
	}
	if err := r.Finish(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Finish = %v, want context.DeadlineExceeded", err)
	}
}

func TestRegionFirstFailureWins(t *testing.T) {
	r := NewRegion(context.Background())
	r.RecordPanic("first")
	r.RecordPanic("second")
	r.RecordError(errors.New("third"))
	var pe *PanicError
	if err := r.Finish(); !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "first" {
		t.Fatalf("Finish = %v, want PanicError(first)", err)
	}
	if !r.Canceled() {
		t.Fatal("recorded panic did not cancel the region")
	}
}

func TestPanicErrorCarriesStack(t *testing.T) {
	r := NewRegion(context.Background())
	func() {
		defer func() { r.RecordPanic(recover()) }()
		panic("kaboom")
	}()
	var pe *PanicError
	if !errors.As(r.Err(), &pe) {
		t.Fatalf("Err = %v, want *PanicError", r.Err())
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("Error() = %q lost the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("stack not captured: %q", pe.Stack)
	}
	if plus := fmt.Sprintf("%+v", pe); !strings.Contains(plus, "goroutine") {
		t.Fatalf("%%+v did not include the stack: %q", plus)
	}
}

func TestRegionRecordErrorNil(t *testing.T) {
	r := NewRegion(context.Background())
	r.RecordError(nil)
	if r.Canceled() || r.Err() != nil {
		t.Fatal("RecordError(nil) should be a no-op")
	}
}

func TestRegionFinishIdempotent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRegion(ctx)
	if err := r.Finish(); err != nil {
		t.Fatalf("first Finish = %v", err)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("second Finish = %v", err)
	}
}

// stuckTimerCtx models a deadline whose runtime timer never fires —
// what a request context looks like on a saturated GOMAXPROCS=1 box
// where every worker is busy and the scheduler never runs the timer:
// the deadline is objectively in the past, but Done never closes and
// Err stays nil.
type stuckTimerCtx struct {
	context.Context
	dl time.Time
}

func (c stuckTimerCtx) Deadline() (time.Time, bool) { return c.dl, true }

func TestRegionObservesDeadlineWithoutTimer(t *testing.T) {
	ctx := stuckTimerCtx{context.Background(), time.Now().Add(-time.Second)}
	if ctx.Err() != nil || ctx.Done() != nil {
		t.Fatal("fixture must look uncanceled to the channel protocol")
	}
	// Done is nil here, so the region takes the value-only fast path;
	// wrap in a cancelable parent to force the polled path instead.
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRegion(stuckTimerCtx{parent, time.Now().Add(-time.Second)})
	if !r.Canceled() {
		t.Fatal("past-deadline region not tripped at entry")
	}
	if err := r.Finish(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Finish = %v, want DeadlineExceeded", err)
	}

	// A live (future) deadline must not trip anything.
	r = NewRegion(stuckTimerCtx{parent, time.Now().Add(time.Hour)})
	if r.Canceled() {
		t.Fatal("future-deadline region born canceled")
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish = %v, want nil", err)
	}
}

// TestRegionFinishReportsUnpolledCancel: a cancel that lands after the
// last poll (or in a region that never polls) is still the region's
// result.
func TestRegionFinishReportsUnpolledCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRegion(ctx)
	if r.Canceled() {
		t.Fatal("canceled before cancel")
	}
	cancel()
	if err := r.Finish(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish = %v, want context.Canceled", err)
	}
	if !r.Canceled() {
		t.Fatal("Finish recorded the cancel but left the flag clear")
	}
}

// TestRegionStartsNoGoroutine pins that binding a region to a
// cancelable context costs no goroutine, Finished or not.
func TestRegionStartsNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	before := runtime.NumGoroutine()
	regions := make([]*Region, 1000)
	for i := range regions {
		regions[i] = NewRegion(ctx)
		if i%2 == 0 {
			regions[i].Finish()
		}
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Fatalf("1000 regions on a cancelable context grew the goroutine count from %d to %d", before, after)
	}
	for _, r := range regions {
		if r.Canceled() {
			t.Fatal("live region reports canceled")
		}
	}
}
