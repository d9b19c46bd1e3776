package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"threading/internal/sched"
)

// ErrClosed is returned by operations on a closed Resolver.
var ErrClosed = errors.New("shard: resolver is closed")

// handle is one shard's routing record. inflight counts dispatches the
// Resolver has assigned but not yet seen complete; retired marks a
// shard removed from routing whose drain is waiting for inflight to
// reach zero. The inc-then-check-retired order in acquire pairs with
// the set-retired-then-read-inflight order in Drain so a dispatch
// never lands on a shard whose drain already observed it idle.
// inflight is padded onto its own cache line: every dispatch and
// completion on a shard bumps it, and handles are allocated together
// by the balancer-facing slices, so unpadded counters of neighbouring
// shards (and the id/exec words every acquire reads) would false-share.
type handle struct {
	id    int
	exec  Executor
	start Starter // exec itself, or the goroutine adapter around it

	_        [sched.CacheLine]byte
	inflight atomic.Int64
	_        [sched.CacheLine - 8]byte
	retired  atomic.Bool
}

func newHandle(id int, e Executor) *handle {
	st, ok := e.(Starter)
	if !ok {
		st = goStarter{e}
	}
	return &handle{id: id, exec: e, start: st}
}

// load is the signal the least-loaded balancer reads: assigned-but-
// unfinished dispatches plus the runtime's own queued-work counter.
func (h *handle) load() int64 {
	l := h.inflight.Load()
	if pw, ok := h.exec.(PendingWorker); ok {
		l += pw.PendingWork()
	}
	return l
}

// shardSet is one immutable version of the routing set. load is the
// balancer's probe over hs, built once per version so a dispatch hands
// the balancer a probe without allocating one.
type shardSet struct {
	hs   []*handle
	load func(int) int64
}

func newShardSet(hs []*handle) *shardSet {
	s := &shardSet{hs: hs}
	s.load = func(j int) int64 { return s.hs[j].load() }
	return s
}

// Resolver routes work across a mutable set of shards. It implements
// Executor, so callers written against the interface are oblivious to
// sharding: a ParallelForCtx splits the range into one contiguous part
// per shard and dispatches each part through the balancer, a reduction
// additionally folds the per-shard partials, and a submission routes
// whole to one shard.
//
// The Resolver owns its shards: Close (and Drain, for one shard)
// quiesces and closes them. Construct with New.
type Resolver struct {
	// set is the routing set, copy-on-write: dispatches read it with
	// one atomic load, mutations (serialized by mu) store a new
	// version. It is nil once the Resolver is closed.
	set    atomic.Pointer[shardSet]
	mu     sync.Mutex
	nextID int
	bal    Balancer
	affine bool // bal routes by submitter key, so compute it per call

	async sched.AsyncGroup // in-flight SubmitCtx tasks, joined by Quiesce
}

// config collects New's options.
type config struct {
	shards []Executor
	bal    Balancer
}

// Option configures a Resolver at construction.
type Option func(*config)

// WithShards sets the initial shard set. At least one shard is
// required; the Resolver takes ownership and will Close them.
func WithShards(execs ...Executor) Option {
	return func(c *config) { c.shards = append(c.shards, execs...) }
}

// WithBalancer selects the routing balancer. The default is
// round-robin.
func WithBalancer(b Balancer) Option {
	return func(c *config) { c.bal = b }
}

// New returns a Resolver routing across the shards given via
// WithShards, which must supply at least one. Shards whose executor
// does not implement Starter get a goroutine adapter.
func New(opts ...Option) (*Resolver, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.shards) == 0 {
		return nil, errors.New("shard: resolver needs at least one shard (WithShards)")
	}
	if cfg.bal == nil {
		cfg.bal = RoundRobin()
	}
	_, affine := cfg.bal.(affinity)
	r := &Resolver{bal: cfg.bal, affine: affine}
	hs := make([]*handle, 0, len(cfg.shards))
	for _, e := range cfg.shards {
		hs = append(hs, newHandle(r.nextID, e))
		r.nextID++
	}
	r.set.Store(newShardSet(hs))
	return r, nil
}

// BalancerName reports the name of the configured balancer.
func (r *Resolver) BalancerName() string { return r.bal.Name() }

// shards returns the current routing set, empty once closed.
func (r *Resolver) shards() []*handle {
	if s := r.set.Load(); s != nil {
		return s.hs
	}
	return nil
}

// Shards returns the ids of the currently routable shards, in routing
// order.
func (r *Resolver) Shards() []int {
	hs := r.shards()
	ids := make([]int, len(hs))
	for i, h := range hs {
		ids[i] = h.id
	}
	return ids
}

// NumShards reports the number of currently routable shards.
func (r *Resolver) NumShards() int { return len(r.shards()) }

// AddShard adds a shard to the routing set and returns its id. The
// Resolver takes ownership of the executor.
func (r *Resolver) AddShard(e Executor) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.set.Load()
	if cur == nil {
		return 0, ErrClosed
	}
	id := r.nextID
	r.nextID++
	hs := make([]*handle, 0, len(cur.hs)+1)
	hs = append(hs, cur.hs...)
	hs = append(hs, newHandle(id, e))
	r.set.Store(newShardSet(hs))
	return id, nil
}

// Drain removes shard id from routing, waits for every dispatch
// already assigned to it (and every task submitted directly to it) to
// complete, then closes it — retirement without dropping work. A
// dispatch stays assigned until its part has been joined, so a part
// that has started but not yet joined holds the drain. The last shard
// cannot be drained. Drain returns the shard's first quiesce failure,
// if any.
func (r *Resolver) Drain(id int) error {
	r.mu.Lock()
	cur := r.set.Load()
	if cur == nil {
		r.mu.Unlock()
		return ErrClosed
	}
	idx := -1
	for i, h := range cur.hs {
		if h.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.mu.Unlock()
		return fmt.Errorf("shard: no routable shard %d", id)
	}
	if len(cur.hs) == 1 {
		r.mu.Unlock()
		return errors.New("shard: cannot drain the last shard")
	}
	h := cur.hs[idx]
	hs := make([]*handle, 0, len(cur.hs)-1)
	hs = append(hs, cur.hs[:idx]...)
	hs = append(hs, cur.hs[idx+1:]...)
	r.set.Store(newShardSet(hs))
	h.retired.Store(true)
	r.mu.Unlock()
	waitIdle(h)
	err := h.exec.Quiesce()
	h.exec.Close()
	return err
}

// waitIdle blocks until every dispatch assigned to h has completed.
// Drain and Close are control-plane operations, so a polling wait
// keeps the data-plane decrement a plain atomic.
func waitIdle(h *handle) {
	for i := 0; h.inflight.Load() > 0; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// routable returns the current routing set.
func (r *Resolver) routable() (*shardSet, error) {
	s := r.set.Load()
	if s == nil || len(s.hs) == 0 {
		return nil, ErrClosed
	}
	return s, nil
}

// key returns the submitter key the balancer is handed: memoized per
// call for the affinity balancer, which reads it, and otherwise the
// unmemoized goroutineID, which no built-in balancer calls — so only
// affinity pays for the closure.
func (r *Resolver) key() func() uint64 {
	if r.affine {
		return submitterKey()
	}
	return goroutineID
}

// acquire picks a shard of s through the balancer and reserves one
// dispatch on it. Only a pick that raced a Drain reloads the routing
// set and picks again.
func (r *Resolver) acquire(s *shardSet, key func() uint64) (*handle, error) {
	for {
		i := 0
		if len(s.hs) > 1 {
			i = r.bal.Pick(len(s.hs), s.load, key)
			if i < 0 || i >= len(s.hs) {
				i = 0
			}
		}
		h := s.hs[i]
		h.inflight.Add(1)
		if !h.retired.Load() {
			return h, nil
		}
		// Raced a Drain between snapshot and reservation; the drainer
		// is waiting on inflight, so back out and repick.
		h.inflight.Add(-1)
		var err error
		if s, err = r.routable(); err != nil {
			return nil, err
		}
	}
}

// release returns one reserved dispatch.
func release(h *handle) { h.inflight.Add(-1) }

// parts returns how many contiguous parts an n-iteration loop should
// split into across shards: one per shard, capped by the iteration
// count and, for grain > 0, so that no part drops below grain.
func parts(n, grain, shards int) int {
	k := min(shards, n)
	if grain > 0 {
		k = min(k, n/grain)
	}
	return max(k, 1)
}

// cut returns part i of [lo, hi) split into parts near-equal
// contiguous pieces.
func cut(lo, hi, parts, i int) (int, int) {
	n := hi - lo
	base, rem := n/parts, n%parts
	start := lo + i*base
	if i < rem {
		start += i
	} else {
		start += rem
	}
	end := start + base
	if i < rem {
		end++
	}
	return start, end
}

// inlineParts is the part count up to which a region keeps its
// handles and join handles in stack arrays rather than heap slices.
// The arrays sit in the frame the caller's own part runs under, so
// they are kept small: every byte of that frame deepens the stack of
// the request goroutine that runs part 0.
const inlineParts = 4

// acquireParts reserves one shard per part of an n-iteration loop,
// appending the handles to dst. Reserving every part up front lets a
// least-loaded balancer see the tentative load of the parts already
// placed and spread the remainder.
func (r *Resolver) acquireParts(dst []*handle, n, grain int) ([]*handle, error) {
	s, err := r.routable()
	if err != nil {
		return nil, err
	}
	key := r.key()
	k := parts(n, grain, len(s.hs))
	for i := 0; i < k; i++ {
		h, err := r.acquire(s, key)
		if err != nil {
			for _, a := range dst {
				release(a)
			}
			return nil, err
		}
		dst = append(dst, h)
	}
	return dst, nil
}

// joinParts waits for the started parts 1..k-1 in order, returning
// each part's reservation as its join returns, and hands each part's
// value to fold. It returns err, the caller's own part's failure, if
// set, else the first failure in part order.
func joinParts(hs []*handle, joins []sched.Join, err error, fold func(v float64)) error {
	for i, j := range joins {
		v, jerr := j.Wait()
		release(hs[i+1])
		fold(v)
		if err == nil {
			err = jerr
		}
	}
	return err
}

// ParallelForCtx splits [lo, hi) into one contiguous part per routable
// shard, dispatches the parts concurrently through the balancer, and
// blocks until all complete. Under the affinity balancer every part
// routes to the submitter's shard, trading spread for locality.
//
// Every region takes one path, whatever its shards are: parts 1..k-1
// are started on their shards (Starter), part 0 runs inline on the
// caller — keeping the submitter on the help-first path of its own
// shard — and the started parts are then joined in order, each join
// help-first on its own shard where the executor supports it. Every
// reservation is held until its part has been joined. The error is
// the first failure in part order.
func (r *Resolver) ParallelForCtx(ctx context.Context, lo, hi, grain int, body func(l, h int)) error {
	if lo >= hi {
		return ctx.Err()
	}
	var hbuf [inlineParts]*handle
	hs, err := r.acquireParts(hbuf[:0], hi-lo, grain)
	if err != nil {
		return err
	}
	var jbuf [inlineParts - 1]sched.Join
	joins := jbuf[:0]
	for i := 1; i < len(hs); i++ {
		l, h := cut(lo, hi, len(hs), i)
		joins = append(joins, hs[i].start.StartForCtx(ctx, l, h, grain, body))
	}
	l, h := cut(lo, hi, len(hs), 0)
	err = hs[0].exec.ParallelForCtx(ctx, l, h, grain, body)
	release(hs[0])
	return joinParts(hs, joins, err, func(float64) {})
}

// ParallelReduceCtx splits the reduction like ParallelForCtx and folds
// the per-shard partial results with combine, in part order. combine
// must be associative and commutative; on error the identity is
// returned.
func (r *Resolver) ParallelReduceCtx(ctx context.Context, lo, hi, grain int, identity float64,
	body func(l, h int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	if lo >= hi {
		return identity, ctx.Err()
	}
	var hbuf [inlineParts]*handle
	hs, err := r.acquireParts(hbuf[:0], hi-lo, grain)
	if err != nil {
		return identity, err
	}
	var jbuf [inlineParts - 1]sched.Join
	joins := jbuf[:0]
	for i := 1; i < len(hs); i++ {
		l, h := cut(lo, hi, len(hs), i)
		joins = append(joins, hs[i].start.StartReduceCtx(ctx, l, h, grain, identity, body, combine))
	}
	l, h := cut(lo, hi, len(hs), 0)
	v, err := hs[0].exec.ParallelReduceCtx(ctx, l, h, grain, identity, body, combine)
	release(hs[0])
	acc := combine(identity, v)
	if err = joinParts(hs, joins, err, func(v float64) { acc = combine(acc, v) }); err != nil {
		return identity, err
	}
	return acc, nil
}

// SubmitCtx routes fn whole to one shard chosen by the balancer and
// returns without waiting. Completion and failures are observed
// through Quiesce; the reservation pins the shard against Drain until
// fn finishes, so draining never drops submitted work.
func (r *Resolver) SubmitCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	set, err := r.routable()
	if err != nil {
		return err
	}
	h, err := r.acquire(set, r.key())
	if err != nil {
		return err
	}
	r.async.Add()
	go func() {
		defer r.async.Done()
		defer release(h)
		// A single-iteration loop gives the submission a synchronous
		// completion point on the shard, which is what ties the
		// reservation (and so Drain) to the task actually finishing.
		//threadvet:ignore grainconst the loop is a single task, not an iteration space
		r.async.Record(h.exec.ParallelForCtx(ctx, 0, 1, 1, func(_, _ int) { fn() }))
	}()
	return nil
}

// Quiesce blocks until every task submitted through the Resolver has
// completed, then quiesces each routable shard (covering work
// submitted to a shard directly), and returns the first failure.
func (r *Resolver) Quiesce() error {
	err := r.async.Wait()
	set, rerr := r.routable()
	if rerr != nil {
		if err != nil {
			return err
		}
		return rerr
	}
	for _, h := range set.hs {
		if e := h.exec.Quiesce(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Close retires every shard — waiting for assigned dispatches, then
// quiescing and closing each — and marks the Resolver unusable.
// Close is idempotent.
func (r *Resolver) Close() {
	r.mu.Lock()
	cur := r.set.Swap(nil)
	r.mu.Unlock()
	if cur == nil {
		return
	}
	shards := cur.hs
	for _, h := range shards {
		h.retired.Store(true)
	}
	for _, h := range shards {
		waitIdle(h)
	}
	_ = r.async.Wait()
	for _, h := range shards {
		_ = h.exec.Quiesce()
		h.exec.Close()
	}
}

// PendingWork sums the queued work across every routable shard, so a
// Resolver used as a shard of an outer Resolver still feeds its
// least-loaded balancer.
func (r *Resolver) PendingWork() int64 {
	shards := r.shards()
	var sum int64
	for _, h := range shards {
		sum += h.load()
	}
	return sum
}

// Workers sums the worker counts of every routable shard whose
// executor reports one (the worksteal pools; forkjoin teams don't).
// With ParkedWorkers and PendingWork it lets a sharded deployment sit
// behind the metrics stall watchdog like a single pool.
func (r *Resolver) Workers() int {
	shards := r.shards()
	var sum int
	for _, h := range shards {
		if wk, ok := h.exec.(interface{ Workers() int }); ok {
			sum += wk.Workers()
		}
	}
	return sum
}

// ParkedWorkers sums the parked-worker counts across routable shards
// that report one.
func (r *Resolver) ParkedWorkers() int {
	shards := r.shards()
	var sum int
	for _, h := range shards {
		if pk, ok := h.exec.(interface{ ParkedWorkers() int }); ok {
			sum += pk.ParkedWorkers()
		}
	}
	return sum
}

// Stat is one shard's scheduler counters, tagged with the shard id.
type Stat struct {
	ID       int
	Snapshot sched.Snapshot
}

// statser and resetter are the optional stats surfaces of the
// underlying runtimes, asserted per shard.
type statser interface{ Stats() sched.Snapshot }
type resetter interface{ ResetStats() }

// ShardStats returns each routable shard's counter snapshot in shard
// id order. Shards whose executor exposes no Stats method are omitted.
func (r *Resolver) ShardStats() []Stat {
	shards := r.shards()
	out := make([]Stat, 0, len(shards))
	for _, h := range shards {
		if s, ok := h.exec.(statser); ok {
			out = append(out, Stat{ID: h.id, Snapshot: s.Stats()})
		}
	}
	return out
}

// Stats returns the sum of every routable shard's counters — the
// merged view the aggregate reporting paths use.
func (r *Resolver) Stats() sched.Snapshot {
	var sum sched.Snapshot
	for _, st := range r.ShardStats() {
		sum = sum.Add(st.Snapshot)
	}
	return sum
}

// ResetStats zeroes every routable shard's counters.
func (r *Resolver) ResetStats() {
	shards := r.shards()
	for _, h := range shards {
		if rs, ok := h.exec.(resetter); ok {
			rs.ResetStats()
		}
	}
}
