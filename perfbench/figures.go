package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"threading/internal/kernels"
	"threading/internal/models"
	"threading/internal/sched"
	"threading/internal/tracez"
)

// This file is the closed-loop figures phase: the paper's loop
// kernels (Figs 1-3) and uncut Fibonacci (Fig 5) on the configurations
// the paper compares, one caller, every configuration once per round
// in a seeded shuffled order, so drift of the machine hits all of them
// alike.

// figSizes are the problem sizes of one figures phase.
type figSizes struct {
	vec int // axpy and sum length
	mat int // matvec side
	fib int // Fibonacci argument, spawned without a cut-off
}

// loopRuntimes are the loop configurations, by metric suffix and
// model name.
var loopRuntimes = []struct{ key, model string }{
	{"omp_for", models.OMPFor},
	{"cilk_for", models.CilkFor},
	{"cpp_thread", models.CPPThread},
	{"sharded_cilk_for", models.ShardedPrefix + models.CilkFor},
}

// tracedLoops are the runtimes whose scheduler events a traced run
// records; their summaries give the busy, steal and barrier shares.
var tracedLoops = map[string]bool{"omp_for": true, "cilk_for": true, "sharded_cilk_for": true}

// taskRuntimes are the Fibonacci configurations.
var taskRuntimes = []string{models.CilkSpawn, models.OMPTask}

const axpyA = 2.5

// seqSink keeps the compiler from dropping sequential reference calls
// whose results the timing loop does not otherwise use.
var seqSink float64

// figures holds the inputs, references and runtimes of the phase.
type figures struct {
	sz          figSizes
	x, y0, a, v []float64 // axpy/sum input, axpy start, matrix, matvec input

	wantY, wantMV []float64
	wantSum       float64
	wantFib       uint64

	loops   []*loopConfig
	tasks   []*taskConfig
	seqY    []float64
	seqMV   []float64
	tracers map[string]*tracez.Tracer // nil when untraced
}

type loopConfig struct {
	key   string
	m     models.Model
	y, mv []float64
}

type taskConfig struct {
	key string
	m   models.Model
}

// newFigures generates the inputs from seed and computes the
// sequential references.
func newFigures(sz figSizes, seed uint64) *figures {
	f := &figures{
		sz: sz,
		x:  kernels.RandomVector(sz.vec, seed),
		y0: kernels.RandomVector(sz.vec, seed+1),
		a:  kernels.RandomMatrix(sz.mat, seed+2),
		v:  kernels.RandomVector(sz.mat, seed+3),
	}
	f.wantY = append([]float64(nil), f.y0...)
	kernels.AxpySeq(axpyA, f.x, f.wantY)
	f.wantSum = kernels.SumSeq(axpyA, f.x)
	f.wantMV = make([]float64, sz.mat)
	kernels.MatvecSeq(f.a, f.v, f.wantMV, sz.mat)
	f.wantFib = kernels.FibSeq(sz.fib)
	f.seqY = make([]float64, sz.vec)
	f.seqMV = make([]float64, sz.mat)
	return f
}

// open builds every runtime at threads workers, replacing the current
// ones. With traced set, each of the tracedLoops records scheduler
// events into its own tracer.
func (f *figures) open(threads int, traced bool) error {
	f.close()
	f.loops, f.tasks, f.tracers = nil, nil, nil
	if traced {
		f.tracers = make(map[string]*tracez.Tracer)
	}
	opts := func(key string) []models.Option {
		if f.tracers == nil || !tracedLoops[key] {
			return nil
		}
		tr := tracez.New(1 << 17)
		f.tracers[key] = tr
		return []models.Option{models.WithTracer(tr)}
	}
	for _, r := range loopRuntimes {
		m, err := models.New(r.model, threads, opts(r.key)...)
		if err != nil {
			return err
		}
		l := &loopConfig{key: r.key, m: m, y: make([]float64, f.sz.vec), mv: make([]float64, f.sz.mat)}
		f.loops = append(f.loops, l)
	}
	for _, name := range taskRuntimes {
		m, err := models.New(name, threads, opts(name)...)
		if err != nil {
			return err
		}
		f.tasks = append(f.tasks, &taskConfig{key: name, m: m})
	}
	if got := f.shardCount(); got < 2 {
		return fmt.Errorf("sharded runtime has %d shard(s): refusing to report sharded metrics", got)
	}
	return nil
}

// close releases the runtimes.
func (f *figures) close() {
	for _, l := range f.loops {
		l.m.Close()
	}
	for _, t := range f.tasks {
		t.m.Close()
	}
	f.loops, f.tasks = nil, nil
}

// shardCount reports the shard count of the sharded loop runtime.
func (f *figures) shardCount() int {
	for _, l := range f.loops {
		if s, ok := l.m.(models.ShardedStats); ok {
			return s.NumShards()
		}
	}
	return 0
}

// figResult holds per-round timings in milliseconds.
type figResult struct {
	rounds   int
	loops    map[string][]float64 // axpy+sum+matvec pass, by runtime
	fib      map[string][]float64
	speedup  map[string][]float64 // sequential pass / runtime pass, same round
	seqPass  []float64
	seqFib   []float64
	roundMS  []float64 // whole rounds
	checks   int
	failed   int
	stats    map[string]sched.Snapshot // scheduler counter deltas
	failures []string
}

// merge appends the rounds of o to r.
func (r *figResult) merge(o figResult) {
	r.rounds += o.rounds
	for k, xs := range o.loops {
		r.loops[k] = append(r.loops[k], xs...)
	}
	for k, xs := range o.fib {
		r.fib[k] = append(r.fib[k], xs...)
	}
	for k, xs := range o.speedup {
		r.speedup[k] = append(r.speedup[k], xs...)
	}
	r.seqPass = append(r.seqPass, o.seqPass...)
	r.seqFib = append(r.seqFib, o.seqFib...)
	r.roundMS = append(r.roundMS, o.roundMS...)
	r.checks += o.checks
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	for k, st := range o.stats {
		r.stats[k] = r.stats[k].Add(st)
	}
}

func newFigResult() figResult {
	return figResult{
		loops:   make(map[string][]float64),
		fib:     make(map[string][]float64),
		speedup: make(map[string][]float64),
		stats:   make(map[string]sched.Snapshot),
	}
}

// runFresh plays rounds until budget is spent, each on freshly built
// runtimes after one untimed warm-up round, and pools the timed
// rounds. A runtime instance can settle into a steal or wake-up
// pattern that lasts its lifetime: on a 2-core VM, fib(24) on one
// omp_task team took 17 ms per call and on the next 28 ms. Sampling a
// new instance every round keeps one instance from setting a run's
// medians.
func (f *figures) runFresh(ctx context.Context, threads int, budget time.Duration, rng *rand.Rand) (figResult, figResult, error) {
	timed, warm := newFigResult(), newFigResult()
	for start := time.Now(); timed.rounds == 0 || time.Since(start) < budget; {
		if err := f.open(threads, false); err != nil {
			return timed, warm, err
		}
		warm.merge(f.run(ctx, 0, 1, rng, nil))
		timed.merge(f.run(ctx, 0, 1, rng, nil))
	}
	return timed, warm, nil
}

// run plays rounds until budget is spent (at least minRounds). Every
// output is checked against the sequential references outside the
// timed region.
func (f *figures) run(ctx context.Context, budget time.Duration, minRounds int, rng *rand.Rand, sp *spans) figResult {
	res := newFigResult()
	before := f.schedStats()
	steps := len(f.loops) + len(f.tasks) + 2
	order := make([]int, steps)
	for i := range order {
		order[i] = i
	}
	start := time.Now()
	for res.rounds < minRounds || time.Since(start) < budget {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		round := sp.begin("round", -1, 0)
		t0 := time.Now()
		var seq float64
		pass := make(map[string]float64, len(f.loops))
		for _, k := range order {
			switch {
			case k < len(f.loops):
				l := f.loops[k]
				copy(l.y, f.y0)
				ms, sum, err := f.loopPass(ctx, l, sp, round)
				pass[l.key] = ms
				res.loops[l.key] = append(res.loops[l.key], ms)
				f.check(&res, l.key, err, f.loopOK(l, sum))
			case k < len(f.loops)+len(f.tasks):
				t := f.tasks[k-len(f.loops)]
				c := sp.begin("fib."+t.key, round, 0)
				t1 := time.Now()
				got, err := fibTask(ctx, t.m, f.sz.fib)
				ms := msSince(t1)
				sp.end(c)
				res.fib[t.key] = append(res.fib[t.key], ms)
				f.check(&res, "fib."+t.key, err, got == f.wantFib)
			case k == steps-2:
				copy(f.seqY, f.y0)
				c := sp.begin("loops.seq", round, 0)
				t1 := time.Now()
				kernels.AxpySeq(axpyA, f.x, f.seqY)
				seqSink = kernels.SumSeq(axpyA, f.x)
				kernels.MatvecSeq(f.a, f.v, f.seqMV, f.sz.mat)
				seq = msSince(t1)
				sp.end(c)
				res.seqPass = append(res.seqPass, seq)
			default:
				c := sp.begin("fib.seq", round, 0)
				t1 := time.Now()
				seqSink = float64(kernels.FibSeq(f.sz.fib))
				res.seqFib = append(res.seqFib, msSince(t1))
				sp.end(c)
			}
		}
		sp.end(round)
		res.roundMS = append(res.roundMS, msSince(t0))
		for key, ms := range pass {
			res.speedup[key] = append(res.speedup[key], seq/ms)
		}
		res.rounds++
	}
	for key, s := range f.schedStats() {
		res.stats[key] = s.Delta(before[key])
	}
	return res
}

// loopPass runs axpy, sum and matvec once on l and returns the pass
// time in milliseconds and the sum.
func (f *figures) loopPass(ctx context.Context, l *loopConfig, sp *spans, parent int32) (float64, float64, error) {
	x, a, v, n := f.x, f.a, f.v, f.sz.mat
	y, mv := l.y, l.mv
	c := sp.begin("loops."+l.key, parent, 0)
	t0 := time.Now()
	k := sp.begin("axpy."+l.key, c, 0)
	err := l.m.ParallelForCtx(ctx, len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += axpyA * x[i]
		}
	})
	sp.end(k)
	var sum float64
	if err == nil {
		k = sp.begin("sum."+l.key, c, 0)
		sum, err = l.m.ParallelReduceCtx(ctx, len(x), 0,
			func(lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += axpyA * x[i]
				}
				return acc
			},
			func(p, q float64) float64 { return p + q })
		sp.end(k)
	}
	if err == nil {
		k = sp.begin("matvec."+l.key, c, 0)
		err = l.m.ParallelForCtx(ctx, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := a[i*n : (i+1)*n]
				var s float64
				for j, e := range row {
					s += e * v[j]
				}
				mv[i] = s
			}
		})
		sp.end(k)
	}
	ms := msSince(t0)
	sp.end(c)
	return ms, sum, err
}

// loopOK checks a loop pass: axpy and matvec must match the
// sequential reference exactly, the sum within 1e-9 relative.
func (f *figures) loopOK(l *loopConfig, sum float64) bool {
	for i, w := range f.wantY {
		if l.y[i] != w {
			return false
		}
	}
	for i, w := range f.wantMV {
		if l.mv[i] != w {
			return false
		}
	}
	return relClose(sum, f.wantSum, 1e-9)
}

func (f *figures) check(res *figResult, what string, err error, ok bool) {
	res.checks++
	if err != nil || !ok {
		res.failed++
		if len(res.failures) < 8 {
			res.failures = append(res.failures, fmt.Sprintf("%s: err=%v match=%v", what, err, ok))
		}
	}
}

// schedStats snapshots the scheduler counters of every runtime that
// keeps them.
func (f *figures) schedStats() map[string]sched.Snapshot {
	out := make(map[string]sched.Snapshot)
	for _, l := range f.loops {
		if s, ok := l.m.SchedulerStats(); ok {
			out[l.key] = s
		}
	}
	for _, t := range f.tasks {
		if s, ok := t.m.SchedulerStats(); ok {
			out[t.key] = s
		}
	}
	return out
}

// fibTask computes fib(n) on m with one spawned task per recursive
// branch and no sequential cut-off.
func fibTask(ctx context.Context, m models.Model, n int) (uint64, error) {
	var out uint64
	err := m.TaskRunCtx(ctx, func(s models.TaskScope) { fibSpawn(s, n, &out) })
	return out, err
}

func fibSpawn(s models.TaskScope, n int, out *uint64) {
	if n < 2 {
		*out = uint64(n)
		return
	}
	var a, b uint64
	s.Spawn(func(cs models.TaskScope) { fibSpawn(cs, n-1, &a) })
	fibSpawn(s, n-2, &b)
	s.Sync()
	*out = a + b
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// relClose reports whether got is within tol of want, relative to
// want's magnitude.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(math.Abs(want), 1e-300)
}
