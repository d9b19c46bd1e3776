package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"threading/internal/models"
	"threading/internal/serve"
)

// This file drives threadserve from outside: in process through
// Server.ServeHTTP, or over loopback TCP through net/http. Every
// response is decoded and compared with a single-thread omp_for
// reference server.

// reqClass is one kind of request in a workload's mix.
type reqClass struct {
	name   string
	path   string
	weight float64
	// approx marks a floating-point reduction, compared within 1e-9
	// relative; every other result must match exactly.
	approx bool
}

// handlerClasses are the requests timed closed-loop on every server,
// keyed as serve.handler_us.<name>; "sum" takes the workload's own
// sum path.
var handlerClasses = []reqClass{
	{name: "axpy", path: "/run?kernel=axpy"},
	{name: "matvec", path: "/run?kernel=matvec"},
	{name: "pathfinder", path: "/run?kernel=pathfinder&rows=8"},
	{name: "fanout", path: "/fanout?ways=4", approx: true},
}

// target is a handler with its request plumbing: one handler caller
// and one keep-alive loopback connection per sender. Open-loop points
// use the connection when tcp is set and the caller otherwise; the
// closed-loop ladder rungs use both.
type target struct {
	h       http.Handler
	srv     *serve.Server // nil for the generator's no-op handler
	classes []reqClass
	want    []float64 // reference result per class
	tcp     bool

	hs      *http.Server
	served  chan error
	clients []*http.Client
	inproc  [][]*http.Request // [sender][class], path only
	remote  [][]*http.Request // [sender][class], full loopback URL
	recs    []*recorder
	bufs    []*bytes.Buffer

	sp       *spans
	nextReq  atomic.Int64
	failMu   sync.Mutex
	failures []string
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

// references asks a single-thread omp_for server with the same work
// size for the result of every class.
func references(cfg serve.Config, classes []reqClass) ([]float64, error) {
	ref, err := serve.New(serve.Config{Model: models.OMPFor, Threads: 1, WorkSize: cfg.WorkSize})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	want := make([]float64, len(classes))
	w := newRecorder()
	for i, c := range classes {
		w.reset()
		req, err := http.NewRequest(http.MethodGet, c.path, nil)
		if err != nil {
			return nil, err
		}
		ref.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return nil, fmt.Errorf("reference %s: status %d: %s", c.path, w.code, w.body.String())
		}
		var resp serve.Response
		if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.path, err)
		}
		want[i] = resp.Result
	}
	return want, nil
}

// newTarget boots a server from cfg whose answers to classes must
// equal want.
func newTarget(cfg serve.Config, classes []reqClass, want []float64, senders int, tcp bool) (*target, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	t, err := newPlumbing(srv, classes, want, senders)
	if err != nil {
		srv.Close()
		return nil, err
	}
	t.srv, t.tcp = srv, tcp
	return t, nil
}

// newPlumbing serves h on a loopback listener and builds the
// per-sender requests, recorders and clients.
func newPlumbing(h http.Handler, classes []reqClass, want []float64, senders int) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{h: h, classes: classes, want: want,
		hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { t.served <- t.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for s := 0; s < senders; s++ {
		in := make([]*http.Request, len(classes))
		re := make([]*http.Request, len(classes))
		for i, c := range classes {
			if in[i], err = http.NewRequest(http.MethodGet, c.path, nil); err == nil {
				re[i], err = http.NewRequest(http.MethodGet, base+c.path, nil)
			}
			if err != nil {
				t.close()
				return nil, err
			}
		}
		t.inproc = append(t.inproc, in)
		t.remote = append(t.remote, re)
		t.recs = append(t.recs, newRecorder())
		t.bufs = append(t.bufs, new(bytes.Buffer))
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}})
	}
	return t, nil
}

// close stops the listener, waits for it to return, and closes the
// server.
func (t *target) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	t.hs.Close()
	if err := <-t.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.fail("listener: %v", err)
	}
	if t.srv != nil {
		t.srv.Close()
	}
}

// send issues one request of class c from sender s on the target's
// own path and checks it.
func (t *target) send(s, c int) bool { return t.do(s, c, t.tcp) }

// do issues one request of class c from sender s, over the loopback
// connection or in process, and checks it.
func (t *target) do(s, c int, tcp bool) bool {
	var parent int32 = -1
	if t.sp != nil {
		parent = t.sp.begin("gen.send", -1, t.nextReq.Add(1))
		defer t.sp.end(parent)
	}
	var code int
	var body []byte
	if tcp {
		k := t.sp.begin("net.roundtrip", parent, 0)
		resp, err := t.clients[s].Do(t.remote[s][c])
		if err != nil {
			t.sp.end(k)
			t.fail("%s: %v", t.classes[c].name, err)
			return false
		}
		buf := t.bufs[s]
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t.sp.end(k)
		if err != nil {
			t.fail("%s: read body: %v", t.classes[c].name, err)
			return false
		}
		code, body = resp.StatusCode, buf.Bytes()
	} else {
		w := t.recs[s]
		w.reset()
		k := t.sp.begin("serve.ServeHTTP", parent, 0)
		t.h.ServeHTTP(w, t.inproc[s][c])
		t.sp.end(k)
		code, body = w.code, w.body.Bytes()
	}
	if err := t.check(c, code, body); err != nil {
		t.fail("%v", err)
		return false
	}
	return true
}

// check decodes a response and compares it with the reference.
func (t *target) check(c, code int, body []byte) error {
	cl := t.classes[c]
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", cl.name, code)
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decode: %w", cl.name, err)
	}
	ok := resp.Result == t.want[c]
	if cl.approx {
		ok = relClose(resp.Result, t.want[c], 1e-9)
	}
	if !ok {
		return fmt.Errorf("%s: result %v, want %v", cl.name, resp.Result, t.want[c])
	}
	return nil
}

func (t *target) fail(format string, args ...any) {
	t.failMu.Lock()
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.failMu.Unlock()
}

// play plays d worth of arrivals at a fixed rate and returns the
// samples.
func (t *target) play(seed, stream uint64, rate float64, d time.Duration) []sample {
	mix := make([]float64, len(t.classes))
	for i, c := range t.classes {
		mix[i] = c.weight
	}
	return openLoop(schedule(seed, stream, rate, d, mix), len(t.recs), d+d/4, t.send)
}

// run plays one fixed-rate point and summarizes it.
func (t *target) run(seed, stream uint64, rate float64, d time.Duration) point {
	return summarize(t.play(seed, stream, rate, d), d)
}

// closedLoop sends class c back to back from sender 0 for d, over
// the connection or in process, and returns every request's latency in
// microseconds. It reports false if any response was wrong.
func (t *target) closedLoop(c int, d time.Duration, tcp bool) ([]float64, bool) {
	var out []float64
	ok := true
	for start := time.Now(); time.Since(start) < d || len(out) < 20; {
		t0 := time.Now()
		ok = t.do(0, c, tcp) && ok
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, ok
}
