// Command perfbench is the repository's benchmark of record. It runs
// the paper's kernels closed-loop and threadserve open-loop at
// GOMAXPROCS = runtime threads = the number of CPUs, checks every
// output, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run that reports the per-layer metrics. Without --workload every
// workload runs, untraced and then traced.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"threading/internal/models"
	"threading/internal/serve"
	"threading/internal/shard"
)

// workload is one input set: a figures phase at its sizes, then one
// threadserve configuration under open-loop load.
type workload struct {
	name      string
	figs      figSizes
	cfg       serve.Config // Threads is set at run time
	tcp       bool         // open-loop points go over loopback TCP
	mix       []reqClass
	sumN      int       // length of the mix's sum request
	low, high float64   // fixed offered rates, requests per second
	ladder    []float64 // further offered rates for max_rps, ascending
	lim       limits
}

var workloads = []workload{
	{
		name: "serve-small",
		figs: figSizes{vec: 1 << 18, mat: 512, fib: 24},
		cfg:  serve.Config{Model: models.ShardedPrefix + models.CilkFor, Balancer: "least-loaded"},
		mix: []reqClass{
			{name: "sum", path: "/run?kernel=sum&n=4096", weight: 0.97, approx: true},
			{name: "fanout", path: "/fanout?ways=4", weight: 0.03, approx: true},
		},
		sumN:   4096,
		low:    6000,
		high:   16000,
		ladder: []float64{22000, 26000, 30000, 34000, 38000, 43000},
		lim:    limits{p90: 1, failFrac: 0.001, achieved: 0.97, lagGrowth: 0.5},
	},
	{
		name: "serve-tcp",
		figs: figSizes{vec: 1 << 18, mat: 512, fib: 24},
		cfg:  serve.Config{Model: models.OMPFor, Metrics: true, WorkSize: 1 << 15},
		tcp:  true,
		mix: []reqClass{
			{name: "sum", path: "/run?kernel=sum", weight: 0.4, approx: true},
			{name: "axpy", path: "/run?kernel=axpy", weight: 0.2},
			{name: "matvec", path: "/run?kernel=matvec", weight: 0.2},
			{name: "pathfinder", path: "/run?kernel=pathfinder&rows=8", weight: 0.2},
		},
		sumN:   1 << 15,
		low:    1000,
		high:   2000,
		ladder: []float64{3000, 3600, 4200, 4800, 5400, 6300},
		lim:    limits{p90: 5, failFrac: 0.001, achieved: 0.97, lagGrowth: 2.5},
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, untraced then traced")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "measurement time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	list := fs.Bool("list", false, "print every metric with its unit and what it should move, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "end_to_end  %-42s %-7s %s\n", m.name, m.unit, m.better)
		}
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "per_layer   %-42s %-7s %-6s -> %s\n", m.name, m.unit, m.better, m.moves)
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var todo []workload
	for _, w := range workloads {
		if *name == "" || w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	modes := []bool{*trace == 1}
	if *name == "" {
		modes = []bool{false, true}
	}
	for _, w := range todo {
		for _, traced := range modes {
			res, err := runWorkload(w, *seed, budget, traced, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the effective configuration of a run.
type env struct {
	nproc, threads, shards int
}

// effective pins GOMAXPROCS to the CPU count and reads the shard count
// an identically configured executor really gets.
func effective() (env, error) {
	e := env{nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(e.nproc)
	e.threads = e.nproc
	ex, err := models.NewExecutor(models.ShardedPrefix+models.CilkFor, e.threads,
		models.WithShardBalancer("least-loaded"))
	if err != nil {
		return e, err
	}
	defer ex.Close()
	r, ok := ex.(*shard.Resolver)
	if !ok {
		return e, fmt.Errorf("sharded executor is a %T, not a *shard.Resolver", ex)
	}
	e.shards = r.NumShards()
	if e.shards < 2 {
		return e, fmt.Errorf("sharded runtime has %d shard(s) at %d threads: refusing to report sharded metrics", e.shards, e.threads)
	}
	return e, nil
}

// rig is everything one run measures against.
type rig struct {
	figs *figures
	want []float64 // reference answer per request class
	tgt  *target
}

func (r *rig) close() {
	if r.tgt != nil {
		r.tgt.close()
	}
	r.figs.close()
}

// classes returns the workload's mix followed by the handler-ladder
// classes the mix lacks, with zero weight.
func (w workload) classes() []reqClass {
	out := append([]reqClass(nil), w.mix...)
	have := make(map[string]bool)
	for _, c := range w.mix {
		have[c.name] = true
	}
	for _, c := range handlerClasses {
		if !have[c.name] {
			out = append(out, c)
		}
	}
	return out
}

// setup generates the figures inputs and references, builds the
// runtimes, asks the reference server for the expected answers and
// boots the server under test.
func setup(w workload, e env, seed uint64) (*rig, error) {
	r := &rig{figs: newFigures(w.figs, seed)}
	if err := r.figs.open(e.threads, false); err != nil {
		r.figs.close()
		return nil, err
	}
	var err error
	if r.want, err = references(w.serveConfig(e), w.classes()); err == nil {
		r.tgt, err = newTarget(w.serveConfig(e), w.classes(), r.want, e.threads, w.tcp)
	}
	if err != nil {
		r.figs.close()
		return nil, err
	}
	return r, nil
}

func (w workload) serveConfig(e env) serve.Config {
	c := w.cfg
	c.Threads = e.threads
	return c
}

// values collects metric values by name.
type values map[string]float64

// runWorkload makes one run and returns its result line.
func runWorkload(w workload, seed uint64, budget time.Duration, traced bool, out io.Writer) (result, error) {
	e, err := effective()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# workload=%s trace=%v seed=%d seconds=%.0f nproc=%d gomaxprocs=%d threads=%d shards=%d go=%s\n",
		w.name, traced, seed, budget.Seconds(), e.nproc, runtime.GOMAXPROCS(0), e.threads, e.shards, runtime.Version())
	v := values{}
	var c checks
	if traced {
		err = tracedRun(w, e, seed, budget, v, &c, out)
	} else {
		err = untracedRun(w, e, seed, budget, v, &c, out)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return result{}, fmt.Errorf("metric %s was not measured (value %v)", d.name, x)
		}
		res.Metrics[d.name] = metric{Value: x, Unit: d.unit}
		fmt.Fprintf(out, "  %-42s %14.6g %s\n", d.name, x, d.unit)
	}
	for _, msg := range c.failures {
		fmt.Fprintf(out, "# check failed: %s\n", msg)
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

// checks counts checked operations.
type checks struct {
	attempted, failed int64
	failures          []string
}

func (c *checks) addFigures(r figResult) {
	c.attempted += int64(r.checks)
	c.failed += int64(r.failed)
	c.failures = append(c.failures, r.failures...)
}

func (c *checks) addPoint(p point) {
	c.attempted += int64(p.sent)
	c.failed += int64(p.failed)
}

// A run is split into cycles of about cycleTime, so time-local noise
// of the machine is spread over every metric alike. Each cycle sets
// up a fresh rig (timed), plays figures rounds, each on fresh
// runtimes, and then every serve rung once on the rig's server. A
// runtime instance can settle into a steal or wake-up pattern that
// lasts its lifetime, so a run samples many instances and reports
// medians across them.
//
// On a shared host the hypervisor takes the VM's processors away in
// bursts of seconds. A cycle during which more than maxSteal of the
// machine's CPU time was stolen is left out of the medians and made up
// by an extra cycle, for at most extraTime more than the budget. If
// fewer than half the planned cycles are clean, the half with the
// least stolen time is used. Cycles are chosen by the machine's steal
// counter alone, never by what they measured.
const (
	cycleTime    = 2500 * time.Millisecond
	figuresShare = 0.35
	serveShare   = 0.6
	maxSteal     = 0.01
	extraTime    = 0.4
)

// cycle is what one cycle measured.
type cycle struct {
	setupS float64
	figs   figResult
	segs   []segment // per rung
	steal  float64   // share of the machine's CPU time stolen; -1 if unknown
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w workload, e env, seed uint64, budget time.Duration, v values, c *checks, out io.Writer) error {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 0))
	r, err := setup(w, e, seed)
	if err != nil {
		return err
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	// Warm up caches, pools and connections; the results are checked
	// but not timed.
	c.addFigures(r.figs.run(ctx, 0, 3, rng, nil))
	c.addPoint(r.tgt.run(seed, 1, w.low, budget/40))

	n := max(4, int(budget/cycleTime))
	rates := append([]float64{w.low, w.high}, w.ladder...)
	units := 3 + float64(len(w.ladder))*1.1 // an overloaded rung may run a quarter over
	rung := time.Duration(serveShare * float64(budget) / float64(n) / units)
	durs := make([]time.Duration, len(rates))
	for i := range durs {
		durs[i] = rung
		if i < 2 { // the fixed points get more samples
			durs[i] = rung * 3 / 2
		}
	}
	var cycles []cycle
	clean := 0
	start := time.Now()
	for cyc := 0; cyc < n || (clean < n && time.Since(start) < time.Duration((1+extraTime)*float64(budget))); cyc++ {
		c.failures = append(c.failures, r.tgt.failures...)
		r.close()
		runtime.GC()
		steal0, total0, known := hostTicks()
		t0 := time.Now()
		if r, err = setup(w, e, seed); err != nil {
			return err
		}
		cy := cycle{setupS: time.Since(t0).Seconds(), steal: -1}
		timed, warm, err := r.figs.runFresh(ctx, e.threads, time.Duration(figuresShare*float64(budget))/time.Duration(n), rng)
		c.addFigures(warm)
		c.addFigures(timed)
		if err != nil {
			return err
		}
		cy.figs = timed
		for i, rate := range rates {
			sg := newSegment(r.tgt.play(seed, uint64(1000*cyc+i+2), rate, durs[i]), durs[i])
			c.addPoint(sg.p)
			cy.segs = append(cy.segs, sg)
		}
		if steal1, total1, ok := hostTicks(); known && ok && total1 > total0 {
			cy.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		if cy.steal <= maxSteal {
			clean++
		}
		cycles = append(cycles, cy)
	}
	c.failures = append(c.failures, r.tgt.failures...)

	use := append([]cycle(nil), cycles...)
	sort.SliceStable(use, func(i, j int) bool { return use[i].steal < use[j].steal })
	k := 0
	for k < len(use) && use[k].steal <= maxSteal {
		k++
	}
	use = use[:max(k, n/2)]
	var setups, steals []float64
	figs := newFigResult()
	segs := make([][]segment, len(rates))
	for _, cy := range use {
		setups = append(setups, cy.setupS)
		figs.merge(cy.figs)
		for i := range rates {
			segs[i] = append(segs[i], cy.segs[i])
		}
	}
	for _, cy := range cycles {
		steals = append(steals, cy.steal)
	}
	sort.Float64s(steals)
	fmt.Fprintf(out, "# %d cycles, %d used (host steal per cycle: median %.3g, max %.3g, max used %.3g; limit %g)\n",
		len(cycles), len(use), median(steals), steals[len(steals)-1], use[len(use)-1].steal, maxSteal)

	v["setup_s"] = median(setups)
	for _, l := range loopRuntimes {
		v["loops_ms."+l.key] = median(figs.loops[l.key])
	}
	for _, t := range taskRuntimes {
		v["fib_ms."+t] = median(figs.fib[t])
	}
	fmt.Fprintf(out, "# figures: %d rounds, each on fresh runtimes; sequential pass %.4g ms, fib %.4g ms\n",
		figs.rounds, median(figs.seqPass), median(figs.seqFib))

	points := make([]point, len(rates))
	for i := range rates {
		points[i] = fold(segs[i])
	}
	for i, key := range []string{"low", "high"} {
		v[key+".p50_ms"], v[key+".p90_ms"] = points[i].p50, points[i].p90
		reportPoint(out, key, points[i])
	}
	for _, p := range points[2:] {
		fmt.Fprintf(out, "# ladder %6.0f rps: p90 %.4g ms, lag growth %.3g ms, on time %.4f, failed or unsent %d of %d, pass=%v\n",
			p.rate, p.p90, p.lagGrowth, p.achieved, p.failed+p.n-p.sent, p.n, w.lim.meets(p))
	}
	v["max_rps"] = maxRPS(points, w.lim)
	fmt.Fprintf(out, "# max_rps: %.0f (p90 limit %g ms, medians over %d servers)\n", v["max_rps"], w.lim.p90, len(use))
	v["peak_mem_mb"] = float64(readUint(memTotal)) / 1e6
	return nil
}

// reportPoint prints a fixed-rate point with its sample counts.
func reportPoint(out io.Writer, key string, p point) {
	fmt.Fprintf(out, "# %s: offered %.0f rps, %d requests (%d failed); p50 %.4g ms, p90 %.4g ms (%d beyond), p99 %.4g ms (%d beyond), p99.9 %.4g ms (%d beyond); lag p90 %.4g ms; on time %.4f\n",
		key, p.rate, p.n, p.failed, p.p50, p.p90, beyond(p.n, 0.9), p.p99, beyond(p.n, 0.99), p.p999, beyond(p.n, 0.999), p.lagP90, p.achieved)
}

// beyond is the number of samples above the q-quantile of n.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// runtime/metrics names read by the benchmark.
const (
	memTotal = "/memory/classes/total:bytes"
	gcCycles = "/gc/cycles/total:gc-cycles"
)

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// sortedKeys is used for deterministic diagnostic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spanPath is where a traced run writes its spans, inside the
// checkout's build directory.
func spanPath(w workload) string {
	return ".bench_build/perfbench/spans-" + w.name + ".json"
}
