package models

import (
	"context"
	"fmt"
	"runtime"
	"strconv"

	"threading/internal/forkjoin"
	"threading/internal/sched"
	"threading/internal/shard"
	"threading/internal/worksteal"
)

// ShardedPrefix is the model-name prefix selecting sharded execution:
// "sharded:cilk_for" is the cilk_for model over a shard.Resolver.
const ShardedPrefix = "sharded:"

// shardableNames lists the base models whose runtime can be sharded:
// the pooled runtimes. The thread-per-chunk models have no persistent
// scheduler to shard.
var shardableNames = []string{CilkFor, CilkSpawn, OMPFor, OMPTask}

// shardable reports whether the named base model can back a shard.
func shardable(name string) bool {
	for _, n := range shardableNames {
		if n == name {
			return true
		}
	}
	return false
}

// sharded wraps a shard.Resolver as a Model: the base model's thread
// budget is split across independent runtime shards (pools for the
// cilk bases, teams for the omp bases) and every loop or reduction is
// routed through the resolver's balancer. Loops take the shard
// runtime's native form — divide-and-conquer on pool shards,
// work-sharing on team shards — so per-chunk mechanics match the base
// model's family, while distribution across shards is the resolver's.
//
// Sharded models are loop models: recursive task parallelism would
// need cross-shard joins of arbitrary tasks, which the resolver
// deliberately does not provide — it joins only a loop's parts (a task
// tree routes whole to one shard via SubmitCtx).
type sharded struct {
	res     *shard.Resolver
	name    string
	threads int
	grain   int
}

// NewSharded builds the sharded variant of a shardable base model.
// threads is the total budget, split near-evenly across shards; 0 or
// negative shard counts select a default (see WithShardCount). The
// returned model reports Name() as "sharded:<base>".
func NewSharded(base string, threads, shards int, opts ...Option) (Model, error) {
	var cfg config
	for _, o := range opts {
		o.applyModel(&cfg)
	}
	cfg.shards = shards
	return newSharded(base, threads, cfg)
}

// defaultShardCount is used when sharding is requested by name prefix
// without an explicit count: enough shards to bound steal domains
// while keeping at least two workers per shard where possible.
func defaultShardCount(threads int) int {
	k := threads / 2
	if k < 2 {
		k = 2
	}
	if k > threads {
		k = threads
	}
	return k
}

func newSharded(base string, threads int, cfg config) (Model, error) {
	res, err := newShardResolver(base, threads, cfg)
	if err != nil {
		return nil, err
	}
	return &sharded{
		res:     res,
		name:    ShardedPrefix + base,
		threads: threads,
		grain:   cfg.grain,
	}, nil
}

// newShardResolver builds the resolver behind a sharded model: the
// base model's thread budget split near-evenly across k family-native
// shards (pools for the cilk bases, teams for the omp bases) routed
// by the configured balancer. Shared by the sharded Model wrapper and
// by NewExecutor, which hands the resolver out directly as the
// concurrent submission surface.
func newShardResolver(base string, threads int, cfg config) (*shard.Resolver, error) {
	if !shardable(base) {
		return nil, fmt.Errorf("models: model %q cannot be sharded (shardable: %v)", base, shardableNames)
	}
	bal, err := shard.ParseBalancer(cfg.balancer)
	if err != nil {
		return nil, err
	}
	k := cfg.shards
	switch {
	case k == 0:
		k = defaultShardCount(threads)
	case k < 0:
		k = runtime.GOMAXPROCS(0)
	}
	if k > threads {
		k = threads
	}
	if k < 1 {
		k = 1
	}
	execs := make([]shard.Executor, 0, k)
	offset := 0 // next free tracer ring id; shards get disjoint ranges
	for i := 0; i < k; i++ {
		lo, hi := chunkFor(threads, k, i)
		w := hi - lo
		prefix := "s" + strconv.Itoa(i) + "/"
		switch base {
		case CilkFor, CilkSpawn:
			sub := cfg
			sub.tracer = cfg.tracer.View(offset, prefix)
			execs = append(execs, newWorkstealPool(w, sub))
			offset += w + worksteal.MaxHelpers
		case OMPFor, OMPTask:
			execs = append(execs, forkjoin.NewTeam(w,
				forkjoin.WithTracer(cfg.tracer.View(offset, prefix)),
				forkjoin.WithPinnedWorkers(cfg.pinned)))
			offset += w
		}
	}
	res, err := shard.New(shard.WithBalancer(bal), shard.WithShards(execs...))
	if err != nil {
		for _, e := range execs {
			e.Close()
		}
		return nil, err
	}
	return res, nil
}

func (m *sharded) Name() string { return m.name }
func (m *sharded) Threads() int { return m.threads }

// Resolver exposes the underlying resolver, for callers that manage
// shards directly (hot add/drain) or need per-shard introspection.
func (m *sharded) Resolver() *shard.Resolver { return m.res }

func (m *sharded) ParallelFor(n int, body func(lo, hi int)) {
	mustRun(m.ParallelForCtx(context.Background(), n, body))
}

func (m *sharded) ParallelForCtx(ctx context.Context, n int, body func(lo, hi int)) error {
	return m.res.ParallelForCtx(ctx, 0, n, m.grain, body)
}

func (m *sharded) ParallelReduce(n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) float64 {

	v, err := m.ParallelReduceCtx(context.Background(), n, identity, body, combine)
	mustRun(err)
	return v
}

func (m *sharded) ParallelReduceCtx(ctx context.Context, n int, identity float64,
	body func(lo, hi int, acc float64) float64,
	combine func(a, b float64) float64) (float64, error) {

	return m.res.ParallelReduceCtx(ctx, 0, n, m.grain, identity, body, combine)
}

func (m *sharded) SupportsTasks() bool { return false }

func (m *sharded) TaskRun(func(TaskScope)) {
	panic("models: sharded models are loop models; task trees route whole to one shard via the resolver's SubmitCtx")
}

func (m *sharded) TaskRunCtx(context.Context, func(TaskScope)) error {
	return fmt.Errorf("models: %s: %w", m.name, ErrTasksUnsupported)
}

func (m *sharded) SchedulerStats() (sched.Snapshot, bool) { return m.res.Stats(), true }

func (m *sharded) ResetSchedulerStats() { m.res.ResetStats() }

func (m *sharded) Close() { m.res.Close() }

// ShardedStats is the extra reporting surface of sharded models,
// obtained by type assertion: per-shard counter snapshots (tagged with
// shard ids) plus the sharding configuration, for renderers that break
// the merged totals out per shard.
type ShardedStats interface {
	// ShardSchedulerStats returns each shard's counters in id order.
	ShardSchedulerStats() []shard.Stat
	// NumShards reports the number of routable shards.
	NumShards() int
	// ShardBalancer reports the routing balancer's name.
	ShardBalancer() string
}

func (m *sharded) ShardSchedulerStats() []shard.Stat { return m.res.ShardStats() }
func (m *sharded) NumShards() int                    { return m.res.NumShards() }
func (m *sharded) ShardBalancer() string             { return m.res.BalancerName() }
