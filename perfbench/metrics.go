package main

// metricDef names one reported metric. moves records, for a
// per-layer metric, the end-to-end metric it should move and on which
// workload; BENCHMARK.json carries name, unit and better only.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd is reported by every untraced run (--trace 0).
var endToEnd = []metricDef{
	{name: "loops_ms.omp_for", unit: "ms", better: "lower"},
	{name: "loops_ms.cilk_for", unit: "ms", better: "lower"},
	{name: "loops_ms.cpp_thread", unit: "ms", better: "lower"},
	{name: "loops_ms.sharded_cilk_for", unit: "ms", better: "lower"},
	{name: "fib_ms.cilk_spawn", unit: "ms", better: "lower"},
	{name: "fib_ms.omp_task", unit: "ms", better: "lower"},
	{name: "low.p50_ms", unit: "ms", better: "lower"},
	{name: "low.p90_ms", unit: "ms", better: "lower"},
	{name: "high.p50_ms", unit: "ms", better: "lower"},
	{name: "high.p90_ms", unit: "ms", better: "lower"},
	{name: "max_rps", unit: "1/s", better: "higher"},
	{name: "peak_mem_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is reported by every traced run (--trace 1).
var perLayer = []metricDef{
	{"deque.chaselev.pushpop_ns", "ns", "lower", "fib_ms.cilk_spawn"},
	{"deque.locked.pushpop_ns", "ns", "lower", "fib_ms.omp_task"},
	{"deque.chaselev.steal_ns", "ns", "lower", "loops_ms.cilk_for"},

	{"worksteal.spawn_sync_ns", "ns", "lower", "fib_ms.cilk_spawn"},
	{"worksteal.region_us", "us", "lower", "serve-small high.p50_ms; loops_ms.cilk_for"},
	{"worksteal.region_allocs", "allocs", "lower", "serve-small high.p50_ms; loops_ms.cilk_for"},
	{"worksteal.steal_success_frac.cilk_for", "ratio", "higher", "loops_ms.cilk_for"},
	{"worksteal.steal_success_frac.cilk_spawn", "ratio", "higher", "fib_ms.cilk_spawn"},
	{"worksteal.parks_per_pass.cilk_for", "count", "lower", "loops_ms.cilk_for"},
	{"worksteal.busy_frac.cilk_for", "ratio", "higher", "loops_ms.cilk_for"},
	{"worksteal.steal_latency_p50_us.cilk_for", "us", "lower", "loops_ms.cilk_for"},

	{"forkjoin.region_us", "us", "lower", "loops_ms.omp_for; serve-tcp low.p50_ms"},
	{"forkjoin.region_allocs", "allocs", "lower", "loops_ms.omp_for; serve-tcp low.p50_ms"},
	{"forkjoin.steal_success_frac.omp_task", "ratio", "higher", "fib_ms.omp_task"},
	{"forkjoin.barrier_frac.omp_for", "ratio", "lower", "loops_ms.omp_for"},

	{"futures.thread_join_us", "us", "lower", "loops_ms.cpp_thread"},
	{"futures.fanout_us", "us", "lower", "serve-small high.p90_ms"},

	{"shard.region_us.s1", "us", "lower", "serve-small low.p50_ms, high.p90_ms; serve-tcp bypasses"},
	{"shard.region_us.s2", "us", "lower", "serve-small low.p50_ms, high.p90_ms; serve-tcp bypasses"},
	{"shard.region_allocs", "allocs", "lower", "serve-small low.p50_ms, high.p90_ms; serve-tcp bypasses"},
	{"shard.imbalance", "ratio", "lower", "loops_ms.sharded_cilk_for; serve-small high.p90_ms"},

	{"models.region_us.omp_for", "us", "lower", "loops_ms.omp_for"},
	{"models.region_us.cilk_for", "us", "lower", "loops_ms.cilk_for"},
	{"models.region_us.cpp_thread", "us", "lower", "loops_ms.cpp_thread"},
	{"models.region_us.sharded_cilk_for", "us", "lower", "loops_ms.sharded_cilk_for"},
	{"models.axpy_us.omp_for", "us", "lower", "loops_ms.omp_for"},
	{"models.axpy_us.cilk_for", "us", "lower", "loops_ms.cilk_for"},
	{"models.axpy_us.cpp_thread", "us", "lower", "loops_ms.cpp_thread"},
	{"models.axpy_us.sharded_cilk_for", "us", "lower", "loops_ms.sharded_cilk_for"},
	{"models.sum_us.omp_for", "us", "lower", "loops_ms.omp_for"},
	{"models.sum_us.cilk_for", "us", "lower", "loops_ms.cilk_for"},
	{"models.sum_us.cpp_thread", "us", "lower", "loops_ms.cpp_thread"},
	{"models.sum_us.sharded_cilk_for", "us", "lower", "loops_ms.sharded_cilk_for"},
	{"models.matvec_us.omp_for", "us", "lower", "loops_ms.omp_for"},
	{"models.matvec_us.cilk_for", "us", "lower", "loops_ms.cilk_for"},
	{"models.matvec_us.cpp_thread", "us", "lower", "loops_ms.cpp_thread"},
	{"models.matvec_us.sharded_cilk_for", "us", "lower", "loops_ms.sharded_cilk_for"},
	{"models.speedup.omp_for", "x", "higher", "loops_ms.omp_for"},
	{"models.speedup.cilk_for", "x", "higher", "loops_ms.cilk_for"},
	{"models.speedup.cpp_thread", "x", "higher", "loops_ms.cpp_thread"},
	{"models.speedup.sharded_cilk_for", "x", "higher", "loops_ms.sharded_cilk_for"},

	{"kernels.seq_pass_ms", "ms", "lower", "floor under loops_ms.*"},
	{"kernels.seq_fib_ms", "ms", "lower", "floor under fib_ms.*"},

	{"serve.handler_us.sum", "us", "lower", "low.p50_ms on both serve workloads"},
	{"serve.handler_us.axpy", "us", "lower", "serve-tcp low.p50_ms"},
	{"serve.handler_us.matvec", "us", "lower", "serve-tcp low.p50_ms"},
	{"serve.handler_us.pathfinder", "us", "lower", "serve-tcp low.p90_ms, high.p90_ms"},
	{"serve.handler_us.mix", "us", "lower", "low.p50_ms on both serve workloads"},
	{"serve.envelope_us", "us", "lower", "serve-small low.p50_ms"},
	{"serve.handler_allocs", "allocs", "lower", "serve-small high.p90_ms"},
	{"serve.shed_frac", "ratio", "lower", "failed share; high.p90_ms"},
	{"serve.timeout_frac", "ratio", "lower", "failed share; high.p90_ms"},
	{"serve.peak_depth", "count", "lower", "high.p90_ms"},

	{"metrics.scrape_us", "us", "lower", "serve-tcp high.p90_ms"},
	{"net.roundtrip_us", "us", "lower", "serve-tcp low.p50_ms"},

	{"goruntime.gc_per_kreq", "count", "lower", "high.p90_ms on both serve workloads"},
	{"goruntime.gc_pause_mean_us", "us", "lower", "high.p90_ms on both serve workloads"},

	{"sched.req_busy_us", "us", "lower", "low.p50_ms"},
	{"sched.req_park_us", "us", "lower", "low.p50_ms (wake-up cost)"},
	{"sched.req_steals", "count", "lower", "low.p50_ms"},

	{"gen.lag_p90_ms", "ms", "lower", "validity: should not move"},
	{"gen.achieved_frac", "ratio", "higher", "validity: should not move"},
	{"gen.driver_us", "us", "lower", "validity: should not move"},
	{"trace.overhead_frac", "ratio", "lower", "validity: should not move"},
	{"trace.overhead_frac.figures", "ratio", "lower", "validity: should not move"},
	{"trace.dropped", "count", "lower", "validity: should not move"},
	{"ladder.residual_frac", "ratio", "lower", "validity: should not move"},
}
