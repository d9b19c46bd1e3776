package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"
)

// This file is the benchmark's own open-loop load generator. Arrivals
// follow an absolute Poisson schedule drawn from the seed, and every
// request is timed from its due time, so a stall in the system under
// test shows up as latency on the requests queued behind it.
//
// internal/loadgen is deliberately not reused: its Run starts each
// request's clock inside the per-arrival goroutine, after that
// goroutine has been scheduled, not at the scheduled arrival, and it
// spawns one goroutine per arrival.

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration // offset from the start of the point
	class int           // index into the workload's request mix
}

// schedule draws a Poisson arrival process at rps requests per second
// over d. Each arrival's class is drawn from the weights in mix. The
// same (seed, stream) pair always gives the same schedule.
func schedule(seed, stream uint64, rps float64, d time.Duration, mix []float64) []arrival {
	r := rand.New(rand.NewPCG(seed, stream))
	out := make([]arrival, 0, int(rps*d.Seconds()*1.1)+16)
	end := d.Seconds()
	for t := r.ExpFloat64() / rps; t < end; t += r.ExpFloat64() / rps {
		out = append(out, arrival{due: time.Duration(t * 1e9), class: pick(r, mix)})
	}
	return out
}

// pick draws a class index with probability proportional to its
// weight; zero-weight classes are never drawn.
func pick(r *rand.Rand, mix []float64) int {
	var total float64
	for _, w := range mix {
		total += w
	}
	u := r.Float64() * total
	last := 0
	for c, w := range mix {
		if w <= 0 {
			continue
		}
		if u < w {
			return c
		}
		u -= w
		last = c
	}
	return last
}

// sample is the outcome of one scheduled request.
type sample struct {
	class   int
	due     time.Duration // offset from the start of the point
	sent    bool          // false when the point was cut before its turn
	ok      bool          // status 200 and a correct result
	lag     time.Duration // send start minus due time
	latency time.Duration // completion minus due time
}

// spinWindow is how close to the due time a waiting sender switches
// from sleeping to yield-spinning. It covers nanosleep's overshoot.
const spinWindow = 120 * time.Microsecond

// waitUntil returns at t. It sleeps while far from t and yield-spins
// over the last spinWindow, so other goroutines keep the processor.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 3*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		case d > spinWindow:
			preciseSleep(d - spinWindow)
		default:
			runtime.Gosched()
		}
	}
}

// sendFunc issues one request of the given class from sender s and
// reports whether it succeeded with a correct result.
type sendFunc func(s, class int) bool

// openLoop plays arrivals with the given number of senders. The
// senders take arrivals in due order from one dispenser; the sender
// holding the dispenser waits for the next due time while the others
// block on its mutex, so at most one of them spins. Arrivals still
// unsent at cut after the start are dropped (sample.sent false).
func openLoop(arrivals []arrival, senders int, cut time.Duration, send sendFunc) []sample {
	samples := make([]sample, len(arrivals))
	var mu sync.Mutex
	next := 0
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i == len(arrivals) || time.Since(start) > cut {
					mu.Unlock()
					return
				}
				next++
				due := start.Add(arrivals[i].due)
				waitUntil(due)
				mu.Unlock()
				t0 := time.Now()
				ok := send(s, arrivals[i].class)
				t1 := time.Now()
				samples[i] = sample{sent: true, ok: ok, lag: t0.Sub(due), latency: t1.Sub(due)}
			}
		}()
	}
	wg.Wait()
	for i, a := range arrivals {
		samples[i].class, samples[i].due = a.class, a.due
	}
	return samples
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// point summarizes one fixed-rate run.
type point struct {
	rate      float64 // arrivals per second the schedule realized
	n         int     // arrivals scheduled
	sent      int
	failed    int // sent, but not a correct 200
	p50, p90  float64
	p99, p999 float64 // milliseconds, like p50 and p90
	lagP90    float64 // milliseconds
	achieved  float64 // share of arrivals sent by the end of the schedule
	lagGrowth float64 // median lag of the last fifth minus the first, ms
}

// summarize folds the samples of one point scheduled over d. A
// request that failed or was never sent counts as missing every
// latency limit.
func summarize(samples []sample, d time.Duration) point {
	p := point{n: len(samples), rate: float64(len(samples)) / d.Seconds()}
	lat := make([]float64, 0, len(samples))
	lags := make([]float64, 0, len(samples))
	onTime := 0
	for _, s := range samples {
		if !s.sent {
			lat = append(lat, math.Inf(1))
			continue
		}
		p.sent++
		ms := float64(s.latency) / 1e6
		if !s.ok {
			p.failed++
			ms = math.Inf(1)
		}
		lat = append(lat, ms)
		lags = append(lags, float64(s.lag)/1e6)
		if s.due+s.lag <= d {
			onTime++
		}
	}
	if p.n > 0 {
		p.achieved = float64(onTime) / float64(p.n)
	}
	if k := len(lags) / 5; k > 0 {
		p.lagGrowth = median(lags[len(lags)-k:]) - median(lags[:k])
	}
	sort.Float64s(lat)
	p.p50, p.p90 = quantile(lat, 0.50), quantile(lat, 0.90)
	p.p99, p.p999 = quantile(lat, 0.99), quantile(lat, 0.999)
	sort.Float64s(lags)
	p.lagP90 = quantile(lags, 0.90)
	return p
}

// segment is one rung played on one server: its summary and its
// latencies in ms, +Inf for a failed or unsent request, kept compact
// for the pooled tail.
type segment struct {
	p   point
	lat []float32
}

func newSegment(samples []sample, d time.Duration) segment {
	sg := segment{p: summarize(samples, d), lat: make([]float32, len(samples))}
	for i, s := range samples {
		sg.lat[i] = float32(math.Inf(1))
		if s.sent && s.ok {
			sg.lat[i] = float32(float64(s.latency) / 1e6)
		}
	}
	return sg
}

// fold combines the segments of one rung. Rate, p50, p90, lag, on-time
// share and lag growth are medians across segments, so a segment hit
// by a stall of the machine does not set them. p99 and p99.9 pool
// every sample, since a segment has too few samples beyond them.
// Counts are summed.
func fold(segs []segment) point {
	var out point
	var lat []float64
	for _, sg := range segs {
		out.n += sg.p.n
		out.sent += sg.p.sent
		out.failed += sg.p.failed
		for _, ms := range sg.lat {
			lat = append(lat, float64(ms))
		}
	}
	stat := func(f func(point) float64) float64 {
		xs := make([]float64, len(segs))
		for i, sg := range segs {
			xs[i] = f(sg.p)
		}
		return median(xs)
	}
	out.rate = stat(func(p point) float64 { return p.rate })
	out.p50 = stat(func(p point) float64 { return p.p50 })
	out.p90 = stat(func(p point) float64 { return p.p90 })
	out.lagP90 = stat(func(p point) float64 { return p.lagP90 })
	out.achieved = stat(func(p point) float64 { return p.achieved })
	out.lagGrowth = stat(func(p point) float64 { return p.lagGrowth })
	sort.Float64s(lat)
	out.p99, out.p999 = quantile(lat, 0.99), quantile(lat, 0.999)
	return out
}

// limits are the conditions a point must meet to count toward max_rps.
type limits struct {
	p90       float64 // milliseconds
	failFrac  float64 // largest tolerated share of failed requests
	achieved  float64 // smallest tolerated share sent on schedule
	lagGrowth float64 // largest tolerated lag growth across the point, ms
}

// meets reports whether p keeps p90 within the limit, fails no more
// than the tolerated share, and shows no growing backlog.
func (l limits) meets(p point) bool {
	return p.n > 0 && p.p90 <= l.p90 &&
		float64(p.failed+p.n-p.sent)/float64(p.n) <= l.failFrac &&
		p.achieved >= l.achieved && p.lagGrowth <= l.lagGrowth
}

// maxRPS returns the highest rate on the ladder that meets the limits.
// rungs are in ascending rate order. Between the last passing rung and
// the first failing one, the rate where p90 crosses its limit is
// interpolated on log(p90); a rung that fails on failures or backlog
// alone gives the last passing rate. If every rung passes, the top
// rate is returned; if none does, the lowest rate scaled down by how
// far its p90 overshoots.
func maxRPS(rungs []point, lim limits) float64 {
	i := 0
	for i < len(rungs) && lim.meets(rungs[i]) {
		i++
	}
	switch {
	case i == len(rungs):
		return rungs[i-1].rate
	case i == 0:
		return rungs[0].rate * math.Min(1, lim.p90/rungs[0].p90)
	}
	a, b := rungs[i-1], rungs[i]
	if b.p90 <= lim.p90 || math.IsInf(b.p90, 1) || a.p90 <= 0 {
		return a.rate
	}
	frac := math.Log(lim.p90/a.p90) / math.Log(b.p90/a.p90)
	return a.rate + frac*(b.rate-a.rate)
}
