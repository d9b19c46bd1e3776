package worksteal

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"threading/internal/sched"
)

// The tests below pin the pool's wake-up contract, which keeps no
// count of queued work: a push's seq-cst store into a deque, then its
// read of the idle-state counters, against a parker's publish of
// parkedCount, then its scan of the deques. Each iteration is bounded
// by wakeTimeout, so a lost wake-up fails the test instead of hanging
// it; make race-sched runs them under -race at GOMAXPROCS 1, 2 and 4.

const (
	wakeIters   = 1000
	wakeTimeout = 5 * time.Second
)

// waitParked blocks until every dedicated worker has published its
// parked state (it may still be in its pre-park re-check, which is
// the window a lost wake-up would hide in).
func waitParked(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(wakeTimeout)
	for p.ParkedWorkers() < p.Workers() {
		if time.Now().After(deadline) {
			t.Fatalf("workers never parked: %d of %d", p.ParkedWorkers(), p.Workers())
		}
		runtime.Gosched()
	}
}

// TestWakeOnInboxStart: a split-phase start from a goroutine that
// animates no worker lands on the inbox, and a parked pool must pick
// it up before anyone joins it.
func TestWakeOnInboxStart(t *testing.T) {
	p := NewPool(2, WithSpinBeforePark(1))
	defer p.Close()
	for i := 0; i < wakeIters; i++ {
		waitParked(t, p)
		ran := make(chan struct{})
		j := p.StartForCtx(context.Background(), 0, 1, 1, func(int, int) { close(ran) })
		select {
		case <-ran:
		case <-time.After(wakeTimeout):
			t.Fatalf("iteration %d: parked pool never took the started region from the inbox", i)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("iteration %d: Wait: %v", i, err)
		}
	}
}

// TestWakeOnHelperSpawn: a help-first helper's spawn lands on the
// helper's own deque. The root then blocks without joining, so only a
// woken worker can run the child.
func TestWakeOnHelperSpawn(t *testing.T) {
	p := NewPool(2, WithSpinBeforePark(1))
	defer p.Close()
	for i := 0; i < wakeIters; i++ {
		waitParked(t, p)
		woke := false
		err := p.RunCtx(context.Background(), func(c *Ctx) {
			ran := make(chan struct{})
			c.Spawn(func(*Ctx) { close(ran) })
			select {
			case <-ran:
				woke = true
			case <-time.After(wakeTimeout):
			}
		})
		if err != nil {
			t.Fatalf("iteration %d: RunCtx: %v", i, err)
		}
		if !woke {
			t.Fatalf("iteration %d: parked pool never took the helper's spawn", i)
		}
	}
}

// TestPendingWorkCountsQueued: with the pool's only worker blocked in
// a task that has queued k children, and the submitting helper
// blocked in the root, PendingWork reports exactly k.
func TestPendingWorkCountsQueued(t *testing.T) {
	p := NewPool(1, WithSpinBeforePark(1))
	defer p.Close()
	noop := func(*Ctx) {}
	for i := 0; i < wakeIters; i++ {
		k := 1 + i%8
		var got int64 = -1
		err := p.RunCtx(context.Background(), func(c *Ctx) {
			ready, release := make(chan struct{}), make(chan struct{})
			defer close(release)
			c.Spawn(func(cc *Ctx) {
				for j := 0; j < k; j++ {
					cc.Spawn(noop)
				}
				close(ready)
				<-release
			})
			select {
			case <-ready:
				got = p.PendingWork()
			case <-time.After(wakeTimeout):
			}
		})
		if err != nil {
			t.Fatalf("iteration %d: RunCtx: %v", i, err)
		}
		if got != int64(k) {
			t.Fatalf("iteration %d: PendingWork = %d with %d tasks queued (-1: the worker never took the blocking task)", i, got, k)
		}
	}
	if n := p.PendingWork(); n != 0 {
		t.Fatalf("PendingWork = %d on a drained pool", n)
	}
}

// TestSpawnAndTakeWriteNoPoolWord pins that spawning and taking tasks
// writes no pool-wide word: the Pool struct and its inbox are
// byte-for-byte unchanged across a burst of spawns (through Ctx and
// Scope) and the takes that run them. The only worker is parked, and
// a pretend searcher mutes signalWork so it stays parked; the helper's
// arena is warmed first, so no refill touches the shared freelist.
func TestSpawnAndTakeWriteNoPoolWord(t *testing.T) {
	p := NewPool(1, WithSpinBeforePark(1))
	defer p.Close()
	deadline := time.Now().Add(wakeTimeout)
	for p.Stats().Parks == 0 { // counted after the worker's last pool write
		if time.Now().After(deadline) {
			t.Fatal("worker never parked")
		}
		runtime.Gosched()
	}
	p.searching.Add(1)
	defer p.searching.Add(-1)

	snap := func() []byte {
		b := append([]byte(nil), unsafe.Slice((*byte)(unsafe.Pointer(p)), unsafe.Sizeof(*p))...)
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(p.inbox)), unsafe.Sizeof(*p.inbox))...)
	}
	noop := func(*Ctx) {}
	noopScope := func(sched.TaskScope) {}
	var before, spawned, taken []byte
	burst := func(c *Ctx) {
		before = snap()
		for i := 0; i < 64; i++ {
			c.Spawn(noop)
			(*Scope)(c).Spawn(noopScope)
		}
		spawned = snap()
		c.Sync()
		if c.worker.findWork() != nil { // an empty-handed search
			t.Error("findWork found a task in a drained pool")
		}
		taken = snap()
	}
	p.Run(burst) // warm the helper's arena
	p.Run(burst)
	if !bytes.Equal(before, spawned) {
		t.Error("spawning wrote a pool-wide word")
	}
	if !bytes.Equal(before, taken) {
		t.Error("taking wrote a pool-wide word")
	}
}
