package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"threading/internal/stats"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	mix := []float64{0.97, 0.03}
	a := schedule(7, 1, 5000, time.Second, mix)
	b := schedule(7, 1, 5000, time.Second, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 1, 5000, time.Second, mix)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 2, 5000, time.Second, mix)) {
		t.Fatal("different streams gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
}

func TestScheduleMeanRate(t *testing.T) {
	const rate = 20000.0
	d := 500 * time.Millisecond // about 10k arrivals per schedule
	total := 0
	for seed := uint64(1); seed <= 10; seed++ {
		n := len(schedule(seed, 3, rate, d, []float64{1}))
		if got := float64(n) / d.Seconds(); math.Abs(got/rate-1) > 0.04 {
			t.Errorf("seed %d: rate %.0f, want %.0f within 4%%", seed, got, rate)
		}
		total += n
	}
	if got := float64(total) / (10 * d.Seconds()); math.Abs(got/rate-1) > 0.01 {
		t.Fatalf("mean rate over %d arrivals %.1f, want %.0f within 1%%", total, got, rate)
	}
}

func TestScheduleMix(t *testing.T) {
	arr := schedule(3, 4, 20000, time.Second, []float64{0.75, 0.25, 0, 0})
	count := make([]int, 4)
	for _, a := range arr {
		count[a.class]++
	}
	if count[2]+count[3] != 0 {
		t.Fatalf("zero-weight classes drawn: %v", count)
	}
	if share := float64(count[1]) / float64(len(arr)); math.Abs(share-0.25) > 0.02 {
		t.Fatalf("class 1 share %.3f, want 0.25", share)
	}
}

func TestQuantileKnownAnswers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if beyond(1000, 0.99) != 10 || beyond(1000, 0.999) != 1 {
		t.Errorf("beyond(1000, .99/.999) = %d/%d, want 10/1", beyond(1000, 0.99), beyond(1000, 0.999))
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h stats.LogHist
	for _, v := range []int64{1100, 1200, 1300, 1400} { // one bucket, [1024, 2048)
		h.Add(v)
	}
	lo, hi := stats.BucketBounds(stats.BucketOf(1100))
	got := histQuantile(&h, 0.5)
	if want := float64(lo) + 0.5*float64(hi-lo); got != want {
		t.Fatalf("p50 %v, want %v (halfway through [%d, %d))", got, want, lo, hi)
	}
	if histQuantile(&stats.LogHist{}, 0.5) != 0 {
		t.Fatal("empty histogram must give 0")
	}
}

// samplesAt builds sent samples with the given latencies in ms, due
// 1ms apart, on time.
func samplesAt(lat ...float64) []sample {
	out := make([]sample, len(lat))
	for i, ms := range lat {
		out[i] = sample{due: time.Duration(i) * time.Millisecond, sent: true, ok: true,
			latency: time.Duration(ms * 1e6)}
	}
	return out
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	s := samplesAt(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	p := summarize(s, 10*time.Millisecond)
	if p.p90 != 1 || p.failed != 0 || p.achieved != 1 {
		t.Fatalf("clean point: %+v", p)
	}
	s[3].ok = false
	s[7].sent = false
	p = summarize(s, 10*time.Millisecond)
	if !math.IsInf(p.p90, 1) || p.p50 != 1 || p.failed != 1 || p.sent != 9 {
		t.Fatalf("failed and unsent requests must count as misses: %+v", p)
	}
}

func TestFoldTakesMediansAcrossSegments(t *testing.T) {
	d := 10 * time.Millisecond
	raw := [][]sample{
		samplesAt(1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
		samplesAt(2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
		samplesAt(50, 50, 50, 50, 50, 50, 50, 50, 50, 50), // a stalled segment
	}
	segs := func() []segment {
		out := make([]segment, len(raw))
		for i, s := range raw {
			out[i] = newSegment(s, d)
		}
		return out
	}
	p := fold(segs())
	if p.p50 != 2 || p.p90 != 2 || p.n != 30 || p.sent != 30 || p.failed != 0 || p.rate != 1000 {
		t.Fatalf("fold: %+v", p)
	}
	if p.p99 != 50 || p.p999 != 50 {
		t.Fatalf("pooled tail p99 %v p99.9 %v, want 50", p.p99, p.p999)
	}
	raw[1][4].ok = false
	if p = fold(segs()); p.failed != 1 || !math.IsInf(p.p999, 1) {
		t.Fatalf("a failed request must be counted and miss the pooled tail: %+v", p)
	}
}

func TestLimits(t *testing.T) {
	l := limits{p90: 1, failFrac: 0.001, achieved: 0.97, lagGrowth: 0.5}
	good := point{n: 1000, sent: 1000, p90: 0.9, achieved: 1}
	if !l.meets(good) {
		t.Fatal("a point within every limit must pass")
	}
	for name, p := range map[string]point{
		"p90":      {n: 1000, sent: 1000, p90: 1.1, achieved: 1},
		"failures": {n: 1000, sent: 1000, failed: 2, p90: 0.9, achieved: 1},
		"unsent":   {n: 1000, sent: 998, p90: 0.9, achieved: 1},
		"behind":   {n: 1000, sent: 1000, p90: 0.9, achieved: 0.96},
		"backlog":  {n: 1000, sent: 1000, p90: 0.9, achieved: 1, lagGrowth: 0.6},
	} {
		if l.meets(p) {
			t.Errorf("%s: point %+v passed", name, p)
		}
	}
}

func TestMaxRPSKnownAnswers(t *testing.T) {
	lim := limits{p90: 1, failFrac: 0.001, achieved: 0.97, lagGrowth: 0.5}
	ok := func(rate, p90 float64) point { return point{rate: rate, n: 1000, sent: 1000, p90: p90, achieved: 1} }
	for _, c := range []struct {
		name  string
		rungs []point
		want  float64
	}{
		// p90 crosses 1 ms halfway between 0.5 and 2 ms in log space.
		{"interpolated", []point{ok(100, 0.1), ok(200, 0.5), ok(300, 2)}, 250},
		{"all pass", []point{ok(100, 0.1), ok(200, 0.5)}, 200},
		{"none pass", []point{ok(100, 4), ok(200, 8)}, 25},
		{"backlog", []point{ok(100, 0.1), ok(200, 0.5), {rate: 300, n: 1000, sent: 1000, p90: 0.9, achieved: 0.5}}, 200},
		{"too many unsent", []point{ok(100, 0.1), ok(200, 0.5), {rate: 300, n: 1000, sent: 500, p90: math.Inf(1), achieved: 0.5}}, 200},
	} {
		got := maxRPS(c.rungs, lim)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: max_rps %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	arr := []arrival{{due: 0}, {due: 100 * time.Microsecond}, {due: 200 * time.Microsecond}}
	calls := 0
	s := openLoop(arr, 1, time.Second, func(_, _ int) bool {
		calls++
		if calls == 1 {
			time.Sleep(5 * time.Millisecond)
		}
		return true
	})
	if calls != 3 {
		t.Fatalf("sent %d requests, want 3", calls)
	}
	// The stall of the first request delays the others; their clock
	// started at their due time, so the wait is part of their latency.
	for i := 1; i < 3; i++ {
		if s[i].latency < 4*time.Millisecond || s[i].lag < 4*time.Millisecond {
			t.Errorf("request %d: latency %v, lag %v; the stall was not counted", i, s[i].latency, s[i].lag)
		}
	}
}

func TestOpenLoopCutsLatePoints(t *testing.T) {
	arr := []arrival{{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond}}
	s := openLoop(arr, 1, time.Millisecond, func(_, _ int) bool {
		time.Sleep(10 * time.Millisecond)
		return true
	})
	if !s[0].sent || s[1].sent || s[2].sent {
		t.Fatalf("sent flags %v %v %v, want only the first", s[0].sent, s[1].sent, s[2].sent)
	}
}
