package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"threading/internal/deque"
	"threading/internal/forkjoin"
	"threading/internal/futures"
	"threading/internal/kernels"
	"threading/internal/models"
	"threading/internal/serve"
	"threading/internal/shard"
	"threading/internal/stats"
	"threading/internal/tracez"
	"threading/internal/worksteal"
)

// This file is the traced run. It measures the layer cost ladder
// closed-loop through public entry points, then repeats the figures
// phase and the low-rate point with tracing on, recording the
// benchmark's own spans around each call into a layer and folding in
// the runtimes' tracez summaries.

// perCall calls fn for about d, and at least min times, and returns
// each call's duration in microseconds.
func perCall(d time.Duration, min int, fn func()) []float64 {
	var out []float64
	for start := time.Now(); len(out) < min || time.Since(start) < d; {
		t0 := time.Now()
		fn()
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out
}

// nsPerOp times batches of n calls for about d and returns the median
// batch's nanoseconds per call.
func nsPerOp(d time.Duration, n int, fn func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// allocsPerCall returns the heap allocations per call of fn, counted
// across every goroutine.
func allocsPerCall(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// stealNs times steals from a thief against an owner that keeps its
// Chase-Lev deque between empty and 64 items, and returns nanoseconds
// per successful steal.
func stealNs(d time.Duration) float64 {
	dq := deque.NewChaseLev[int]()
	item := new(int)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if dq.Len() < 64 {
				dq.PushBottom(item)
			} else {
				dq.PopBottom()
			}
		}
	}()
	got := 0
	start := time.Now()
	for time.Since(start) < d || got == 0 {
		for i := 0; i < 1024; i++ {
			if dq.Steal() != nil {
				got++
			}
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	<-done
	return float64(elapsed.Nanoseconds()) / float64(got)
}

// layerRungs measures the runtime rungs of the ladder, each for about
// d: deque operations, spawn and join, an empty region per runtime,
// and a 4096-element reduction on a bare pool, a bare team and a
// Resolver over one and two pools.
func layerRungs(ctx context.Context, e env, r *rig, seed uint64, d time.Duration, v values) {
	item := new(int)
	cl := deque.NewChaseLev[int]()
	v["deque.chaselev.pushpop_ns"] = nsPerOp(d, 1<<14, func() { cl.PushBottom(item); cl.PopBottom() })
	lk := deque.NewLocked[int]()
	v["deque.locked.pushpop_ns"] = nsPerOp(d, 1<<14, func() { lk.PushBottom(item); lk.PopBottom() })
	v["deque.chaselev.steal_ns"] = stealNs(d)

	pool := worksteal.NewPool(e.threads)
	noop := func(*worksteal.Ctx) {}
	const spawns = 4096
	v["worksteal.spawn_sync_ns"] = nsPerOp(d, 1, func() {
		_ = pool.RunCtx(ctx, func(c *worksteal.Ctx) {
			for i := 0; i < spawns; i++ {
				c.Spawn(noop)
				c.Sync()
			}
		})
	}) / spawns

	x := kernels.RandomVector(4096, seed)
	reduce := func(ex shard.Executor) func() {
		return func() {
			_, _ = ex.ParallelReduceCtx(ctx, 0, len(x), 0, 0,
				func(lo, hi int, acc float64) float64 {
					for i := lo; i < hi; i++ {
						acc += x[i]
					}
					return acc
				},
				func(a, b float64) float64 { return a + b })
		}
	}
	v["worksteal.region_us"] = median(perCall(d, 100, reduce(pool)))
	v["worksteal.region_allocs"] = allocsPerCall(1000, reduce(pool))
	pool.Close()

	team := forkjoin.NewTeam(e.threads)
	v["forkjoin.region_us"] = median(perCall(d, 100, reduce(team)))
	v["forkjoin.region_allocs"] = allocsPerCall(1000, reduce(team))
	team.Close()

	s1, err1 := shard.New(shard.WithBalancer(shard.LeastLoaded()),
		shard.WithShards(worksteal.NewPool(e.threads)))
	half := max(e.threads/2, 1)
	s2, err2 := shard.New(shard.WithBalancer(shard.LeastLoaded()),
		shard.WithShards(worksteal.NewPool(half), worksteal.NewPool(max(e.threads-half, 1))))
	if err1 == nil && err2 == nil {
		v["shard.region_us.s1"] = median(perCall(d, 100, reduce(s1)))
		v["shard.region_us.s2"] = median(perCall(d, 100, reduce(s2)))
		v["shard.region_allocs"] = allocsPerCall(1000, reduce(s2))
	}
	for _, s := range []*shard.Resolver{s1, s2} {
		if s != nil {
			s.Close()
		}
	}

	v["futures.thread_join_us"] = median(perCall(d, 100, func() { futures.NewThread(func() {}).Join() }))

	for _, l := range r.figs.loops {
		m := l.m
		v["models.region_us."+l.key] = median(perCall(d/2, 50, func() {
			_ = m.ParallelForCtx(ctx, 1<<18, func(lo, hi int) {})
		}))
	}
}

// requestRungs measures the request-path rungs closed-loop on the
// workload's own server, each for about d: the handler per class and
// over the mix, the generator's envelope, the socket, the serve
// envelope around the region, allocations and a metrics scrape.
func requestRungs(ctx context.Context, w workload, e env, t *target, seed uint64, d time.Duration, v values) error {
	index := make(map[string]int)
	for i, c := range t.classes {
		index[c.name] = i
	}
	for _, name := range []string{"sum", "axpy", "matvec", "pathfinder"} {
		lat, ok := t.closedLoop(index[name], d, false)
		if !ok {
			return fmt.Errorf("closed-loop %s: wrong response: %v", name, t.failures)
		}
		v["serve.handler_us."+name] = median(lat)
	}
	lat, ok := t.closedLoop(index["fanout"], d, false)
	if !ok {
		return fmt.Errorf("closed-loop fanout: wrong response: %v", t.failures)
	}
	v["futures.fanout_us"] = median(lat)

	mix := make([]float64, len(t.classes))
	for i, c := range t.classes {
		mix[i] = c.weight
	}
	rng := rand.New(rand.NewPCG(seed, 60))
	var mixed []float64
	for start := time.Now(); time.Since(start) < d || len(mixed) < 20; {
		c := pick(rng, mix)
		t0 := time.Now()
		ok := t.do(0, c, false)
		mixed = append(mixed, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			return fmt.Errorf("closed-loop mix: wrong response: %v", t.failures)
		}
	}
	v["serve.handler_us.mix"] = median(mixed)

	// The generator's own envelope: the same request, recorder and
	// response check around a handler that only writes a canned body.
	body := []byte(`{"kernel":"sum","result":1.5,"ns":1}` + "\n")
	canned := http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusOK)
		rw.Write(body)
	})
	noop, err := newPlumbing(canned, []reqClass{{name: "canned", path: "/run?kernel=sum"}}, []float64{1.5}, 1)
	if err != nil {
		return err
	}
	lat, ok = noop.closedLoop(0, d, false)
	driverAllocs := allocsPerCall(1000, func() { noop.do(0, 0, false) })
	noop.close()
	if !ok {
		return fmt.Errorf("generator envelope: %v", noop.failures)
	}
	v["gen.driver_us"] = median(lat)

	sum := index["sum"]
	v["serve.handler_allocs"] = allocsPerCall(1000, func() { t.do(0, sum, false) }) - driverAllocs
	tcp, ok := t.closedLoop(sum, d, true)
	if !ok {
		return fmt.Errorf("closed-loop sum over TCP: %v", t.failures)
	}
	v["net.roundtrip_us"] = median(tcp) - v["serve.handler_us.sum"]

	// The serve envelope is the handler minus the same reduction made
	// directly on an identically configured executor.
	cfg := w.serveConfig(e)
	ex, err := models.NewExecutor(cfg.Model, cfg.Threads,
		models.WithShardCount(cfg.Shards), models.WithShardBalancer(cfg.Balancer))
	if err != nil {
		return err
	}
	x := kernels.RandomVector(w.sumN, seed)
	region := median(perCall(d, 100, func() {
		_, _ = ex.ParallelReduceCtx(ctx, 0, len(x), cfg.Grain, 0,
			func(lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += x[i]
				}
				return acc
			},
			func(a, b float64) float64 { return a + b })
	}))
	_ = ex.Quiesce()
	ex.Close()
	v["serve.envelope_us"] = v["serve.handler_us.sum"] - region

	reg := t.srv.Registry()
	if reg == nil {
		mc := cfg
		mc.Metrics = true
		ms, err := serve.New(mc)
		if err != nil {
			return err
		}
		defer ms.Close()
		reg = ms.Registry()
	}
	v["metrics.scrape_us"] = median(perCall(d, 50, func() { _ = reg.WritePrometheus(io.Discard) }))
	return nil
}

// tracedRun measures the per-layer metrics.
func tracedRun(w workload, e env, seed uint64, budget time.Duration, v values, c *checks, out io.Writer) error {
	r, err := setup(w, e, seed)
	if err != nil {
		return err
	}
	defer r.close()
	tf := newFigures(w.figs, seed)
	defer tf.close()
	if err := tf.open(e.threads, true); err != nil {
		return err
	}
	tr := tracez.New(1 << 16)
	cfg := w.serveConfig(e)
	cfg.Tracer = tr
	tt, err := newTarget(cfg, w.classes(), r.want, e.threads, w.tcp)
	if err != nil {
		return err
	}
	defer tt.close()
	sp := newSpans()
	tt.sp = sp
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 0))

	c.addFigures(r.figs.run(ctx, 0, 3, rng, nil))
	c.addFigures(tf.run(ctx, 0, 3, rng, nil))
	layerRungs(ctx, e, r, seed, budget/80, v)
	if err := requestRungs(ctx, w, e, r.tgt, seed, budget/50, v); err != nil {
		return err
	}

	// Figures, untraced then traced.
	fu := r.figs.run(ctx, budget/10, 5, rng, nil)
	c.addFigures(fu)
	ft := tf.run(ctx, budget*3/20, 5, rng, sp)
	c.addFigures(ft)
	v["kernels.seq_pass_ms"] = median(fu.seqPass)
	v["kernels.seq_fib_ms"] = median(fu.seqFib)
	for _, l := range loopRuntimes {
		v["models.speedup."+l.key] = median(fu.speedup[l.key])
	}
	durs := sp.durations()
	for _, l := range loopRuntimes {
		for _, k := range []string{"axpy", "sum", "matvec"} {
			v["models."+k+"_us."+l.key] = median(durs[k+"."+l.key])
		}
	}
	v["trace.overhead_frac.figures"] = median(ft.roundMS)/median(fu.roundMS) - 1
	stealFrac := func(key string) float64 {
		s := fu.stats[key]
		return float64(s.Steals) / float64(max(s.Steals+s.FailedSteals, 1))
	}
	v["worksteal.steal_success_frac.cilk_for"] = stealFrac("cilk_for")
	v["worksteal.steal_success_frac.cilk_spawn"] = stealFrac(models.CilkSpawn)
	v["forkjoin.steal_success_frac.omp_task"] = stealFrac(models.OMPTask)
	v["worksteal.parks_per_pass.cilk_for"] = float64(fu.stats["cilk_for"].Parks) / float64(fu.rounds)

	wall := func(key string) float64 { // ns inside the runtime's passes, times threads
		var total float64
		for _, us := range durs["loops."+key] {
			total += us * 1e3
		}
		return total * float64(e.threads)
	}
	cilk := tracez.Summarize(tf.tracers["cilk_for"].Snapshot())
	v["worksteal.busy_frac.cilk_for"] = float64(cilk.TotalBusyNs) / wall("cilk_for")
	v["worksteal.steal_latency_p50_us.cilk_for"] = histQuantile(&cilk.StealLatency, 0.5) / 1e3
	omp := tracez.Summarize(tf.tracers["omp_for"].Snapshot())
	var barrier int64
	for _, ws := range omp.Workers {
		barrier += ws.BarrierNs
	}
	v["forkjoin.barrier_frac.omp_for"] = float64(barrier) / wall("omp_for")
	v["shard.imbalance"] = laneImbalance(tracez.Summarize(tf.tracers["sharded_cilk_for"].Snapshot()))

	// Serve: untraced low and high points, then the low point traced.
	low := r.tgt.run(seed, 2, w.low, budget/10)
	c.addPoint(low)
	gc0 := readUint(gcCycles)
	st0 := r.tgt.srv.Stats(true)
	high := r.tgt.run(seed, 3, w.high, budget/10)
	c.addPoint(high)
	st1 := r.tgt.srv.Stats(false)
	gc1 := readUint(gcCycles)
	reportPoint(out, "low", low)
	reportPoint(out, "high", high)
	v["goruntime.gc_per_kreq"] = float64(gc1-gc0) / (float64(high.sent) / 1e3)
	offered := float64(max(st1.Accepted-st0.Accepted+st1.Shed-st0.Shed, 1))
	v["serve.shed_frac"] = float64(st1.Shed-st0.Shed) / offered
	v["serve.timeout_frac"] = float64(st1.Timeouts-st0.Timeouts) / offered
	v["serve.peak_depth"] = float64(st1.PeakDepth)
	v["gen.lag_p90_ms"] = high.lagP90
	v["gen.achieved_frac"] = high.achieved

	traced := tt.run(seed, 2, w.low, budget/10)
	c.addPoint(traced)
	reportPoint(out, "low traced", traced)
	v["trace.overhead_frac"] = traced.p50/low.p50 - 1
	var busy, park, steals float64
	reqs := tracez.SummarizeRequests(tr.Snapshot())
	for _, rc := range reqs {
		busy += float64(rc.BusyNs)
		park += float64(rc.ParkNs)
		steals += float64(rc.Steals)
	}
	n := float64(max(len(reqs), 1))
	v["sched.req_busy_us"] = busy / n / 1e3
	v["sched.req_park_us"] = park / n / 1e3
	v["sched.req_steals"] = steals / n

	// The mean stop-the-world pause covers every GC of the run, so it
	// never rests on a window without a collection.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["goruntime.gc_pause_mean_us"] = float64(ms.PauseTotalNs) / float64(max(ms.NumGC, 1)) / 1e3

	dropped := tr.Dropped()
	fmt.Fprintf(out, "# trace dropped: serve %d", dropped)
	for _, key := range sortedKeys(tf.tracers) {
		d := tf.tracers[key].Dropped()
		fmt.Fprintf(out, ", %s %d", key, d)
		dropped += d
	}
	fmt.Fprintln(out)
	v["trace.dropped"] = float64(dropped)

	onPath := 0.0
	if w.tcp {
		onPath = v["net.roundtrip_us"]
	}
	lowUS := low.p50 * 1e3
	v["ladder.residual_frac"] = (lowUS - (v["gen.driver_us"] + v["serve.handler_us.mix"] + onPath)) / lowUS
	fmt.Fprintf(out, "# ladder: low.p50 %.4g us = driver %.4g + handler(mix) %.4g + net %.4g + residual %.4g\n",
		lowUS, v["gen.driver_us"], v["serve.handler_us.mix"], onPath, lowUS*v["ladder.residual_frac"])

	c.failures = append(c.failures, r.tgt.failures...)
	c.failures = append(c.failures, tt.failures...)
	if err := sp.write(spanPath(w)); err != nil {
		return err
	}
	self := sp.selfTimes()
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(out, "# span %-28s n=%-7d self p50 %.4g us\n", name, len(self[name]), median(self[name]))
	}
	return nil
}

// histQuantile returns the q-quantile of h, interpolated linearly
// inside the power-of-two bucket that holds it, or 0 for an empty h.
func histQuantile(h *stats.LogHist, q float64) float64 {
	target := q * float64(h.N())
	var cum float64
	out := 0.0
	done := false
	h.Buckets(func(lo, hi, count int64) {
		if done || count == 0 {
			return
		}
		if cum+float64(count) >= target {
			out = float64(lo) + (target-cum)/float64(count)*float64(hi-lo)
			done = true
		}
		cum += float64(count)
	})
	return out
}

// laneImbalance is max/mean busy time across the shard lanes (s0/,
// s1/, ...) of a sharded runtime's trace.
func laneImbalance(s *tracez.Summary) float64 {
	lanes := make(map[string]float64)
	for _, ws := range s.Workers {
		if lane, _, ok := strings.Cut(ws.Label, "/"); ok {
			lanes[lane] += float64(ws.BusyNs)
		}
	}
	var total, peak float64
	for _, b := range lanes {
		total += b
		peak = max(peak, b)
	}
	if total == 0 {
		return 0
	}
	return peak / (total / float64(len(lanes)))
}
