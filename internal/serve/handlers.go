package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"threading/internal/futures"
	"threading/internal/metrics"
	"threading/internal/sched"
)

// errBadRequest marks client errors (unknown kernel, malformed
// parameters): reported as 400, never counted as a runtime failure.
var errBadRequest = errors.New("bad request")

// Response is the JSON body of a successful kernel request.
type Response struct {
	Kernel string  `json:"kernel"`
	Result float64 `json:"result"`
	NS     int64   `json:"ns"`
	Ways   int     `json:"ways,omitempty"`
	Hedged bool    `json:"hedged,omitempty"`
	Winner int     `json:"winner,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// instrumented wraps a kernel handler with the service envelope:
// admission (shed with 429 when the bounded queue is full), the
// per-request deadline (?timeout_ms, default Config.Timeout) flowing
// into the executor's Ctx API, latency stamping, and counter upkeep.
// By the time a 504 is written the request's region has drained —
// ParallelForCtx does not return before its chunks stop — so the
// runtime is reusable immediately.
func (s *Server) instrumented(name string, fn func(ctx context.Context, q url.Values) (Response, error)) http.Handler {
	// Telemetry series are resolved once, at registration; the request
	// path below touches them without registry lookups. Both stay nil
	// when metrics are off.
	var latency *metrics.Histogram
	var entered *metrics.ShardedCounter
	if s.registry != nil {
		latency = s.registry.Histogram("threadserve_request_latency_ns",
			"End-to-end request latency by handler, nanoseconds.",
			metrics.Label{Key: "handler", Value: name})
		entered = s.registry.ShardedCounter("threadserve_handler_requests_total",
			"Requests entering each handler (admitted only).",
			s.cfg.Threads, metrics.Label{Key: "handler", Value: name})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.admit() {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests,
				errorResponse{Error: "admission queue full: request shed"})
			return
		}
		defer s.release()

		// The query is parsed once here; the handler reads the same
		// values.
		q := r.URL.Query()
		timeout := s.cfg.Timeout
		if ms, ok, err := queryInt(q, "timeout_ms"); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		} else if ok && ms > 0 {
			timeout = time.Duration(ms) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		// With tracing active, mint a request id and thread it through
		// the context: every runtime's Ctx entry point captures it into
		// its Region, and the workers stamp it into their span events —
		// the correlation traceview's per-request table is built from.
		// The id is echoed as X-Request-Id so a client can find its own
		// request in the trace.
		var rid int64
		if s.tracer != nil {
			rid = s.nextReq.Add(1)
			ctx = sched.WithRequestID(ctx, rid)
			w.Header().Set("X-Request-Id", strconv.FormatInt(rid, 10))
		}
		if entered != nil {
			// The id doubles as the spreading index across the padded
			// counter shards, so concurrent handlers don't contend on
			// one cache line.
			entered.Inc(int(rid))
		}

		start := time.Now()
		resp, err := fn(ctx, q)
		resp.NS = time.Since(start).Nanoseconds()
		if latency != nil {
			latency.Observe(resp.NS)
		}
		switch {
		case err == nil:
			s.completed.Add(1)
			writeJSON(w, http.StatusOK, resp)
		case errors.Is(err, errBadRequest):
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.timeouts.Add(1)
			s.failed.Add(1)
			writeJSON(w, http.StatusGatewayTimeout,
				errorResponse{Error: fmt.Sprintf("%s: deadline exceeded after %v (region drained)", name, timeout)})
		default:
			s.failed.Add(1)
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
	})
}

// queryInt parses an optional integer query parameter.
func queryInt(q url.Values, key string) (int, bool, error) {
	v := q.Get(key)
	if v == "" {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("%w: %s=%q is not an integer", errBadRequest, key, v)
	}
	return n, true, nil
}

// parseKernelReq reads the shared kernel parameters.
func parseKernelReq(q url.Values) (kernelReq, error) {
	req := kernelReq{kernel: q.Get("kernel")}
	if req.kernel == "" {
		req.kernel = "sum"
	}
	if n, ok, err := queryInt(q, "n"); err != nil {
		return req, err
	} else if ok {
		req.n = n
	}
	if rows, ok, err := queryInt(q, "rows"); err != nil {
		return req, err
	} else if ok {
		req.rows = rows
	}
	return req, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"model":   s.cfg.Model,
		"threads": s.cfg.Threads,
		"queue":   s.cfg.Queue,
		"kernels": Kernels(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats(r.URL.Query().Get("reset-peak") != ""))
}

// handleRun executes one kernel under the request deadline.
func (s *Server) handleRun(ctx context.Context, q url.Values) (Response, error) {
	req, err := parseKernelReq(q)
	if err != nil {
		return Response{}, err
	}
	if _, err := s.work.clamp(req); err != nil {
		return Response{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	v, err := s.run(ctx, req)
	return Response{Kernel: req.kernel, Result: v}, err
}

// handleFanout forks a sum into ?ways= concurrent sub-requests — one
// future per part, joined with WhenAll (the golang-restclient
// ForkJoin shape: launch everything, then read every response). Each
// part is an independent executor submission, so parts of one request
// compete with other requests under the same balancer/steal policy.
func (s *Server) handleFanout(ctx context.Context, q url.Values) (Response, error) {
	ways := 4
	if k, ok, err := queryInt(q, "ways"); err != nil {
		return Response{}, err
	} else if ok {
		if k < 1 || k > 64 {
			return Response{}, fmt.Errorf("%w: ways=%d out of [1, 64]", errBadRequest, k)
		}
		ways = k
	}
	n := s.work.n
	fs := make([]*futures.Future[float64], ways)
	for i := 0; i < ways; i++ {
		lo, hi := i*n/ways, (i+1)*n/ways
		fs[i] = futures.Async(futures.LaunchAsync, func() (float64, error) {
			return s.sumRange(ctx, lo, hi)
		})
	}
	//threadvet:ignore ctxdrop drain on purpose: every sub-request observes ctx at chunk boundaries, so WhenAll settles promptly on expiry and no future outlives the handler (GetCtx would abandon live parts)
	parts, err := futures.WhenAll(fs...).Get()
	if err != nil {
		return Response{}, err
	}
	var total float64
	for _, p := range parts {
		total += p
	}
	return Response{Kernel: "sum", Result: total, Ways: ways}, nil
}

// handleHedged runs one kernel with a hedged duplicate: if the
// primary has not finished within ?hedge_ms (default Config.Hedge),
// a duplicate launches and the first to finish wins; the loser is
// canceled and drained before the response is written.
func (s *Server) handleHedged(ctx context.Context, q url.Values) (Response, error) {
	req, err := parseKernelReq(q)
	if err != nil {
		return Response{}, err
	}
	if _, err := s.work.clamp(req); err != nil {
		return Response{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	delay := s.cfg.Hedge
	if ms, ok, err := queryInt(q, "hedge_ms"); err != nil {
		return Response{}, err
	} else if ok {
		delay = time.Duration(ms) * time.Millisecond
	}
	res, err := futures.HedgeCtx(ctx, delay, func(hctx context.Context) (float64, error) {
		return s.run(hctx, req)
	})
	if res.Hedged {
		s.hedges.Add(1)
		if res.Winner == 1 {
			s.hedgeWins.Add(1)
		}
	}
	if err != nil {
		return Response{}, err
	}
	return Response{Kernel: req.kernel, Result: res.Value, Hedged: res.Hedged, Winner: res.Winner}, nil
}
