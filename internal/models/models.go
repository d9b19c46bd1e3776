// Package models presents the six threading-model configurations the
// reproduced paper benchmarks behind one interface, so every kernel
// and application in this repository is written once and executed
// under each model:
//
//	omp_for    — fork-join work-sharing loops (OpenMP parallel for)
//	omp_task   — explicit tasks over lock-based deques (OpenMP task)
//	cilk_for   — divide-and-conquer loops over work stealing (cilk_for)
//	cilk_spawn — spawn/sync over lock-free work stealing (cilk_spawn)
//	cpp_thread — manual chunking, a fresh thread per chunk (std::thread)
//	cpp_async  — futures, one async task per chunk (std::async)
//
// The models differ only in scheduling policy and runtime machinery;
// the numeric work performed for a given kernel is identical, which is
// the property that makes cross-model timing comparisons meaningful.
package models

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"threading/internal/forkjoin"
	"threading/internal/sched"
	"threading/internal/tracez"
	"threading/internal/worksteal"
)

// ErrTasksUnsupported is returned (wrapped with the model's name) by
// TaskRunCtx on pure loop models — omp_for and cilk_for — which
// cannot express recursive task parallelism. Test with errors.Is.
var ErrTasksUnsupported = errors.New("model does not support task parallelism")

// Model is one threading-model configuration. Implementations are
// safe for repeated use but not for concurrent calls; Close releases
// any persistent workers.
//
// Every blocking operation comes in two forms: a context-aware
// variant (ParallelForCtx, ParallelReduceCtx, TaskRunCtx) that
// supports cooperative cancellation and returns the region's first
// failure as an error, and a legacy variant that runs under
// context.Background and panics on failure. Cancellation is observed
// at chunk/task boundaries through the shared sched.Region flag, so
// every model pays the same one-atomic-load cost and cross-model
// timings remain comparable.
type Model interface {
	// Name returns the model's identifier, e.g. "omp_for".
	Name() string
	// Threads returns the degree of parallelism the model was created
	// with.
	Threads() int
	// ParallelFor partitions [0, n) across the model's threads and
	// invokes body on disjoint chunks covering the range. It returns
	// after every chunk completes.
	ParallelFor(n int, body func(lo, hi int))
	// ParallelForCtx is ParallelFor with cooperative cancellation:
	// once ctx is done, unstarted chunks are skipped, in-flight chunks
	// drain, and the context's error is returned. A panic in body
	// cancels the loop and is returned as a *sched.PanicError. The
	// model remains usable after a canceled or failed loop.
	ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error
	// ParallelReduce folds [0, n) into a float64: body folds one
	// chunk starting from acc, combine merges per-thread partials.
	// combine must be associative and commutative.
	ParallelReduce(n int, identity float64,
		body func(lo, hi int, acc float64) float64,
		combine func(a, b float64) float64) float64
	// ParallelReduceCtx is ParallelReduce with cooperative
	// cancellation. On failure it returns identity together with the
	// region's first error; the partial sums of a canceled reduction
	// are never observable.
	ParallelReduceCtx(ctx context.Context, n int, identity float64,
		body func(lo, hi int, acc float64) float64,
		combine func(a, b float64) float64) (float64, error)
	// SupportsTasks reports whether the model can express recursive
	// task parallelism. Pure loop models (omp_for, cilk_for) cannot,
	// mirroring the paper's Fibonacci experiment which runs only the
	// task-capable configurations.
	SupportsTasks() bool
	// TaskRun executes root as a task that may recursively Spawn and
	// Sync children. It panics for models where SupportsTasks is
	// false.
	TaskRun(root func(TaskScope))
	// TaskRunCtx is TaskRun with cooperative cancellation: once ctx
	// is done, further Spawns are dropped and the context's error is
	// returned; a task panic is returned as a *sched.PanicError. On
	// loop-only models it returns ErrTasksUnsupported (wrapped with
	// the model's name) instead of panicking.
	TaskRunCtx(ctx context.Context, root func(TaskScope)) error
	// SchedulerStats returns scheduler counters when the model's
	// runtime collects them (the pooled runtimes do; the raw
	// thread-per-chunk models do not).
	SchedulerStats() (sched.Snapshot, bool)
	// ResetSchedulerStats zeroes the counters; a no-op for models
	// without a persistent runtime.
	ResetSchedulerStats()
	// Close releases persistent workers. The model must not be used
	// afterwards.
	Close()
}

// TaskScope lets a task spawn and join children, independent of the
// underlying runtime. It is sched.TaskScope: cilk_spawn and omp_task
// hand their tasks the runtime's native scope (worksteal.Scope,
// forkjoin.Scope), so a spawn through it allocates nothing beyond the
// caller's closure.
type TaskScope = sched.TaskScope

// Model names, as used by the benchmark harness and CLI tools.
const (
	OMPFor    = "omp_for"
	OMPTask   = "omp_task"
	CilkFor   = "cilk_for"
	CilkSpawn = "cilk_spawn"
	CPPThread = "cpp_thread"
	CPPAsync  = "cpp_async"
)

// Option configures optional, model-independent construction knobs.
// Models that a knob does not apply to simply ignore it, so a harness
// can pass the same options to every model name uniformly. Option is
// an interface (rather than a bare func type) so the root threading
// package can define combined option values that satisfy several
// layers' option types at once.
type Option interface{ applyModel(*config) }

type optionFunc func(*config)

func (f optionFunc) applyModel(c *config) { f(c) }

// config collects the resolved Option values.
type config struct {
	partitioner worksteal.Partitioner
	grain       int
	tracer      *tracez.Tracer
	shards      int
	balancer    string
	pinned      bool
}

// WithPartitioner selects the loop partitioner used by the
// work-stealing models (cilk_for, cilk_spawn). The zero value is
// worksteal.Eager, the paper-faithful divide-and-conquer
// decomposition; worksteal.Lazy enables demand-driven splitting. The
// other four models ignore this option.
func WithPartitioner(p worksteal.Partitioner) Option {
	return optionFunc(func(c *config) { c.partitioner = p })
}

// WithGrain fixes the cilk_for loop grain (the smallest chunk the
// divide-and-conquer decomposition produces). The zero value keeps
// the default heuristic min(2048, ceil(n/8p)); small fixed grains
// stress the distribution machinery, which is what the benchmark
// gate's work-stealing series measure. Models without a grain knob
// ignore this option.
func WithGrain(g int) Option {
	return optionFunc(func(c *config) { c.grain = g })
}

// WithTracer attaches a scheduler-event tracer to the model's runtime:
// the pooled runtimes record per-worker events, the thread-per-chunk
// models record one ring per chunk index plus an overflow ring for
// recursive tasks. A nil tracer (the zero value) disables tracing, and
// the runtimes' hot paths then pay only a nil check.
func WithTracer(tr *tracez.Tracer) Option {
	return optionFunc(func(c *config) { c.tracer = tr })
}

// WithShardCount splits a pooled model's runtime into n shards routed
// by a shard.Resolver: n independent pools (cilk_for, cilk_spawn) or
// teams (omp_for, omp_task) splitting the model's thread budget, so
// each steal domain is bounded to one shard's workers. n = 0 (the
// zero value) disables sharding; n < 0 selects one shard per
// GOMAXPROCS processor; n > the thread count is clamped. The
// thread-per-chunk models (cpp_*) ignore this option, so a harness
// can pass it uniformly.
func WithShardCount(n int) Option {
	return optionFunc(func(c *config) { c.shards = n })
}

// WithShardBalancer selects the balancer of a sharded model's
// resolver by name: "round-robin" (the default), "random",
// "least-loaded", or "affinity". Ignored unless sharding is enabled.
func WithShardBalancer(name string) Option {
	return optionFunc(func(c *config) { c.balancer = name })
}

// WithPinnedWorkers locks the pooled runtimes' worker goroutines to
// OS threads (runtime.LockOSThread) for the life of the model: pool
// workers for cilk_for/cilk_spawn, members 1..n-1 for
// omp_for/omp_task (member 0 is the caller's goroutine), and every
// shard's workers for the sharded forms. The thread-per-chunk models
// (cpp_*) ignore this option — their threads are born and die with
// each chunk, so there is nothing durable to pin.
func WithPinnedWorkers(on bool) Option {
	return optionFunc(func(c *config) { c.pinned = on })
}

// factories maps model names to constructors.
var factories = map[string]func(threads int, cfg config) Model{
	OMPFor: func(t int, cfg config) Model {
		return NewOMPForWithOptions(t, forkjoin.WithTracer(cfg.tracer),
			forkjoin.WithPinnedWorkers(cfg.pinned))
	},
	OMPTask: func(t int, cfg config) Model {
		return NewOMPTaskWithOptions(t, forkjoin.WithTracer(cfg.tracer),
			forkjoin.WithPinnedWorkers(cfg.pinned))
	},
	CilkFor: func(t int, cfg config) Model {
		return &cilkFor{pool: newWorkstealPool(t, cfg), n: t, grain: cfg.grain}
	},
	CilkSpawn: func(t int, cfg config) Model {
		return &cilkSpawn{pool: newWorkstealPool(t, cfg), n: t}
	},
	CPPThread: func(t int, cfg config) Model { return newCPPThread(t, cfg.tracer) },
	CPPAsync:  func(t int, cfg config) Model { return newCPPAsync(t, cfg.tracer) },
}

// Names returns all model names in a stable order.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DataNames returns the models used in the paper's data-parallel
// experiments, in presentation order.
func DataNames() []string {
	return []string{OMPFor, OMPTask, CilkFor, CilkSpawn, CPPThread, CPPAsync}
}

// TaskNames returns the task-capable models, in presentation order.
func TaskNames() []string {
	return []string{OMPTask, CilkSpawn, CPPThread, CPPAsync}
}

// New constructs the named model with the given thread count and
// options. A "sharded:" name prefix (e.g. "sharded:cilk_for") wraps
// the base model's runtime in a shard.Resolver, as does WithShardCount
// on a shardable base name; see NewSharded for the semantics.
func New(name string, threads int, opts ...Option) (Model, error) {
	if threads < 1 {
		return nil, fmt.Errorf("models: thread count %d < 1", threads)
	}
	var cfg config
	for _, o := range opts {
		o.applyModel(&cfg)
	}
	if base, ok := strings.CutPrefix(name, ShardedPrefix); ok {
		return newSharded(base, threads, cfg)
	}
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	if cfg.shards != 0 && shardable(name) {
		return newSharded(name, threads, cfg)
	}
	return f(threads, cfg), nil
}

// MustNew is New, panicking on error. For tests and benchmarks.
func MustNew(name string, threads int, opts ...Option) Model {
	m, err := New(name, threads, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// mustRun adapts a ctx-variant failure to the legacy panicking
// surface: a recorded task panic re-panics with its original value in
// the message, any other error panics wholesale. The legacy Model
// methods are thin wrappers built from this.
func mustRun(err error) {
	if err == nil {
		return
	}
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		panic(fmt.Sprintf("models: parallel operation panicked: %v", pe.Value))
	}
	panic(fmt.Sprintf("models: parallel operation failed: %v", err))
}

// guarded wraps fn for execution on a raw thread or async task under
// reg: the body is skipped once the region is canceled, and a panic
// is recorded into the region instead of crossing the thread
// boundary — the same per-chunk guard the pooled runtimes apply
// internally, so all six models share cancellation semantics.
func guarded(reg *sched.Region, fn func()) func() {
	return func() {
		if reg.Canceled() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				reg.RecordPanic(r)
			}
		}()
		fn()
	}
}

// chunkFor returns the manual-chunking bounds of chunk i of k over n
// iterations: contiguous blocks whose sizes differ by at most one —
// BASE = N/threads in the paper's C++ versions.
func chunkFor(n, k, i int) (lo, hi int) {
	base := n / k
	rem := n % k
	lo = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}
