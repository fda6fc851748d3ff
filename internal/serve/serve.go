// Package serve exposes the fit→optimize→schedule pipeline as a
// long-running HTTP JSON service — the "schedule as a service" layer
// (DESIGN.md §15) that turns the one-shot CLI pipeline into something
// a fleet can query at rate.
//
// Routes:
//
//	POST /v1/fit                          fit a model family to a history (memoized per key)
//	POST /v1/schedule                     fit (or take params) and build a checkpoint schedule
//	GET  /v1/schedule/{key}               the stored schedule, in full
//	GET  /v1/schedule/{key}/interval?age= the O(1) interval lookup — the hot path
//	GET  /healthz, /metrics, /metrics/history, /debug/trace/snapshot
//	GET  /debug/pprof/* (behind Options.Pprof)
//
// Three layers make it sustain load (cmd/ckpt-load drives ≥100k
// lookups/sec against one process):
//
//   - Sharded state. Fits go through the sharded single-flight
//     fit.Cache; schedules live in an equally sharded store whose
//     entries coalesce concurrent builders, so a thundering herd for
//     one cold key does the expensive work exactly once.
//
//   - Admission control. Each route has a bounded in-flight limit and
//     a bounded, deadline-capped wait queue; what doesn't fit is shed
//     with 429 + Retry-After rather than queued without bound, so
//     overload degrades throughput, not latency.
//
//   - An allocation-lean hot path. The interval route parses its own
//     query string, reuses the schedule's quantized O(1) lookup with a
//     shared position hint, and renders its response into a stack
//     buffer — no encoding/json, no url.Values.
//
// Graceful drain: Running.Shutdown stops the listener, lets in-flight
// requests finish, and returns once the serve goroutine has exited.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/core"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// Options configures a Server. The zero value is serviceable: no
// metrics, no tracing, host-sized sharding, bounded stores, default
// admission limits.
type Options struct {
	// Registry receives the serve_* metrics (DESIGN.md §15); nil turns
	// instrumentation off. The caller wires fit.Instrument and
	// markov.Instrument separately if it wants those layers observed.
	Registry *obs.Registry
	// Tracer records fit/schedule request spans and shed events on the
	// serve lane (pid 2). The interval hot path is deliberately
	// untraced. Nil disables tracing.
	Tracer *obs.Tracer
	// MaxFits bounds the sharded fit cache; 0 means 131072 entries,
	// negative means unbounded.
	MaxFits int
	// MaxSchedules bounds the schedule store; 0 means 65536, negative
	// means unbounded.
	MaxSchedules int
	// Interval is the interval route's admission policy; zero fields
	// take the defaults (256 in flight, a 1024-deep 5 ms queue). Fits
	// and schedule builds always admit 2×GOMAXPROCS with a 64-deep,
	// 250 ms queue.
	Interval RouteLimit
	// RetryAfter is the advisory Retry-After on 429 responses,
	// rounded up to whole seconds; 0 means 1 s.
	RetryAfter time.Duration
	// History, when set, is served at /metrics/history and receives the
	// per-route SLO burn-rate updates on its scrape cycle. Build it over
	// the same Registry so the slo_* gauges ride both expositions.
	// Starting the self-scraper remains the caller's job.
	History *obs.History
	// Pprof mounts net/http/pprof under /debug/pprof/ — off by default
	// because profiling endpoints do not belong on an exposed port
	// unasked.
	Pprof bool
}

// maxBody caps request bodies, in bytes.
const maxBody = 8 << 20

// The per-route service-level objectives: a latency bound in seconds (a
// slower success still burns error budget) and an availability target.
// Fits and schedule builds share the heavy pair.
const (
	heavySLOLatency, heavySLOObjective       = 2.5, 0.99
	intervalSLOLatency, intervalSLOObjective = 0.01, 0.999
)

// Server routes and serves the scheduling API. Build with New; it is
// an http.Handler, so it can be mounted under a caller's server or run
// with Start.
type Server struct {
	opts                          Options
	fits                          *fit.Cache
	store                         *scheduleStore
	m                             serveMetrics
	limFit, limSched, limInterval *limiter
	sloFit, sloSched, sloInterval *obs.SLO
	retryAfterSec                 string
	ops                           *http.ServeMux // obs.NewOpsMux: /metrics, /healthz, /debug/*

	// hookAdmitted, when set (tests only), runs after a request passes
	// admission for the named route — the seam the overload and drain
	// tests use to hold a request in flight deterministically.
	hookAdmitted func(route string)
}

// servePid is the trace lane (DESIGN.md §12) for request spans.
const servePid = 2

// New builds a Server from opts.
func New(opts Options) *Server {
	s := &Server{opts: opts}
	s.m.register(opts.Registry)
	s.ops = obs.NewOpsMux(opts.Registry, opts.Tracer, opts.History, opts.Pprof)
	maxFits := opts.MaxFits
	if maxFits == 0 {
		maxFits = 1 << 17
	}
	s.fits = fit.NewCacheOpts(fit.CacheOptions{MaxEntries: maxFits})
	maxSched := opts.MaxSchedules
	if maxSched == 0 {
		maxSched = 1 << 16
	}
	if maxSched < 0 {
		maxSched = 0
	}
	s.store = newScheduleStore(shardDefault(), maxSched, &s.m)

	heavy := RouteLimit{MaxInFlight: 2 * runtime.GOMAXPROCS(0), MaxQueued: 64, MaxWait: 250 * time.Millisecond}
	s.limFit = newLimiter(heavy)
	s.limSched = newLimiter(heavy)
	s.limInterval = newLimiter(opts.Interval.withDefaults(
		RouteLimit{MaxInFlight: 256, MaxQueued: 1024, MaxWait: 5 * time.Millisecond}))

	ra := opts.RetryAfter
	if ra <= 0 {
		ra = time.Second
	}
	s.retryAfterSec = strconv.Itoa(int((ra + time.Second - 1) / time.Second))

	s.sloFit = obs.NewSLO(opts.Registry, "fit", heavySLOLatency, heavySLOObjective)
	s.sloSched = obs.NewSLO(opts.Registry, "schedule", heavySLOLatency, heavySLOObjective)
	s.sloInterval = obs.NewSLO(opts.Registry, "interval", intervalSLOLatency, intervalSLOObjective)
	if h := opts.History; h != nil {
		s.sloFit.Attach(h)
		s.sloSched.Attach(h)
		s.sloInterval.Attach(h)
	}
	return s
}

// shardDefault sizes the schedule store's shard count like the fit
// cache does: 8 lock domains per P, clamped to [8, 512].
func shardDefault() int {
	n := 8 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return n
}

// Schedules reports how many schedules are resident.
func (s *Server) Schedules() int { return s.store.len() }

// ServeHTTP routes requests. The interval route is matched by hand —
// not via http.ServeMux patterns — because mux wildcard matching
// allocates per request and this path is the one that runs a hundred
// thousand times a second.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	path := r.URL.Path
	if key, ok := intervalKey(path); ok {
		s.handleInterval(w, r, key)
		return
	}
	if key, ok := strings.CutPrefix(path, "/v1/schedule/"); ok {
		if key != "" && !strings.Contains(key, "/") {
			s.handleGetSchedule(w, r, key)
		} else {
			s.errorf(w, http.StatusNotFound, "no such route")
		}
		return
	}
	switch path {
	case "/v1/fit":
		s.handleFit(w, r)
	case "/v1/schedule":
		s.handleSchedule(w, r)
	default:
		// Everything else is the shared operations mux or a 404.
		if h, pattern := s.ops.Handler(r); pattern != "" {
			h.ServeHTTP(w, r)
			return
		}
		s.errorf(w, http.StatusNotFound, "no such route")
	}
}

// errorf writes a JSON error body with the given status.
func (s *Server) errorf(w http.ResponseWriter, status int, format string, args ...any) {
	s.m.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, `{"error":%s}`+"\n", msg)
}

// shed answers 429 with the advisory Retry-After — admission control
// turned the request away to keep the queues bounded.
func (s *Server) shed(w http.ResponseWriter, route string) {
	s.m.shed.Inc()
	if t := s.opts.Tracer; t != nil {
		t.Event(servePid, 1, "serve.shed", obs.AttrStr("route", route))
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", s.retryAfterSec)
	w.WriteHeader(http.StatusTooManyRequests)
	io.WriteString(w, `{"error":"overloaded; retry after the indicated delay"}`+"\n")
}

// decodeBody decodes a JSON request body into dst, bounding its size.
func (s *Server) decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBody+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

// fieldErr labels a request-field failure the way cliflag does, so the
// joined 400 body names every bad field at once.
func fieldErr(ck *cliflag.Checker, field, msg string) {
	ck.Check(field, errors.New(msg))
}

type fitRequest struct {
	Key   string    `json:"key"`
	Model string    `json:"model"`
	Data  []float64 `json:"data"`
}

type fitResponse struct {
	Key    string    `json:"key"`
	Model  string    `json:"model"`
	Params []float64 `json:"params"`
	N      int       `json:"n"`
}

// handleFit classifies the request against the fit SLO on every exit
// path: serveFit reports whether the client got a 2xx, and anything
// else — including a shed — burns error budget.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ok := s.serveFit(w, r)
	s.sloFit.Observe(time.Since(start).Seconds(), ok)
}

func (s *Server) serveFit(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		s.errorf(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if !s.limFit.acquire() {
		s.shed(w, "fit")
		return false
	}
	defer s.limFit.release()
	if s.hookAdmitted != nil {
		s.hookAdmitted("fit")
	}
	var sp *obs.Span
	if t := s.opts.Tracer; t != nil {
		sp = t.StartSpan(servePid, 1, "serve.fit")
		defer sp.End()
	}

	var req fitRequest
	if err := s.decodeBody(r, &req); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return false
	}
	var ck cliflag.Checker
	if req.Key == "" {
		fieldErr(&ck, "key", "must be non-empty")
	}
	model, err := fit.ParseModel(req.Model)
	ck.Check("model", err)
	if len(req.Data) == 0 {
		fieldErr(&ck, "data", "must be non-empty")
	}
	if err := ck.Err(); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return false
	}
	sp.SetAttr(obs.AttrStr("key", req.Key), obs.AttrStr("model", req.Model))

	d, err := s.fits.Fit(req.Key, model, req.Data)
	switch {
	case errors.Is(err, fit.ErrKeyReuse):
		s.errorf(w, http.StatusConflict, "%v", err)
		return false
	case err != nil:
		s.errorf(w, http.StatusUnprocessableEntity, "fit: %v", err)
		return false
	}
	_, params, err := core.ParamsOf(d)
	if err != nil {
		s.errorf(w, http.StatusInternalServerError, "%v", err)
		return false
	}
	s.writeJSON(w, fitResponse{Key: req.Key, Model: model.String(), Params: params, N: len(req.Data)})
	return true
}

type scheduleRequest struct {
	Key    string    `json:"key"`
	Model  string    `json:"model"`
	Data   []float64 `json:"data,omitempty"`
	Params []float64 `json:"params,omitempty"`
	// C and R are the overhead costs in seconds; omit R (or send -1)
	// for the paper's R = C convention.
	C float64  `json:"c"`
	R *float64 `json:"r,omitempty"`
	// Telapsed is how long the resource has already been available.
	Telapsed float64 `json:"telapsed"`
	// Horizon and MaxIntervals bound the plan (markov defaults apply
	// when zero).
	Horizon      float64 `json:"horizon"`
	MaxIntervals int     `json:"max_intervals"`
	// Replace rebuilds even if the key already has a schedule;
	// otherwise a POST for a stored key returns it (coalesced).
	Replace bool `json:"replace"`
}

type scheduleResponse struct {
	Key       string  `json:"key"`
	Model     string  `json:"model,omitempty"`
	Intervals int     `json:"intervals"`
	Horizon   float64 `json:"horizon"`
	T0        float64 `json:"t0"`
	Cached    bool    `json:"cached"`
}

// handleSchedule classifies the request against the schedule SLO on
// every exit path, the same wrapper shape as handleFit.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ok := s.serveSchedule(w, r)
	s.sloSched.Observe(time.Since(start).Seconds(), ok)
}

func (s *Server) serveSchedule(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		s.errorf(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if !s.limSched.acquire() {
		s.shed(w, "schedule")
		return false
	}
	defer s.limSched.release()
	if s.hookAdmitted != nil {
		s.hookAdmitted("schedule")
	}
	var sp *obs.Span
	if t := s.opts.Tracer; t != nil {
		sp = t.StartSpan(servePid, 1, "serve.schedule")
		defer sp.End()
	}

	var req scheduleRequest
	if err := s.decodeBody(r, &req); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return false
	}
	var ck cliflag.Checker
	if req.Key == "" {
		fieldErr(&ck, "key", "must be non-empty")
	}
	model, err := fit.ParseModel(req.Model)
	ck.Check("model", err)
	switch {
	case len(req.Data) == 0 && len(req.Params) == 0:
		fieldErr(&ck, "data", "need data (a history to fit) or params (an explicit distribution)")
	case len(req.Data) > 0 && len(req.Params) > 0:
		fieldErr(&ck, "data", "data and params are mutually exclusive")
	}
	ck.NonNegative("c", req.C)
	// A missing or negative r selects the paper's R = C convention, so
	// the only thing to validate is finiteness — and JSON cannot carry
	// NaN or ±Inf, so there is nothing left to reject.
	rCost := -1.0
	if req.R != nil {
		rCost = *req.R
	}
	ck.NonNegative("telapsed", req.Telapsed)
	ck.NonNegative("horizon", req.Horizon)
	ck.NonNegativeInt("max_intervals", req.MaxIntervals)
	if err := ck.Err(); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return false
	}
	costs, err := markov.NewCosts(req.C, rCost, -1)
	if err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return false
	}
	sp.SetAttr(obs.AttrStr("key", req.Key), obs.AttrStr("model", req.Model))

	e, created := s.store.create(req.Key, req.Replace)
	if !created {
		// Coalesce: join the stored (or in-flight) build.
		s.m.coalesced.Inc()
		e.wait()
		if e.err != nil {
			s.errorf(w, http.StatusUnprocessableEntity, "schedule: %v", e.err)
			return false
		}
		s.respondSchedule(w, req.Key, "", e.sched, true)
		return true
	}

	sched, err := s.buildSchedule(req, model, costs)
	s.store.complete(e, sched, err)
	if err != nil {
		s.errorf(w, http.StatusUnprocessableEntity, "schedule: %v", err)
		return false
	}
	s.respondSchedule(w, req.Key, model.String(), sched, false)
	return true
}

// buildSchedule resolves the availability distribution (explicit
// params, or a cached fit of the posted history) and plans from it.
func (s *Server) buildSchedule(req scheduleRequest, model fit.Model, costs markov.Costs) (*markov.Schedule, error) {
	var d dist.Distribution
	var err error
	if len(req.Params) > 0 {
		d, err = core.DistFromParams(model, req.Params)
	} else {
		d, err = s.fits.Fit(req.Key, model, req.Data)
	}
	if err != nil {
		return nil, err
	}
	m := markov.Model{Avail: d, Costs: costs}
	return m.BuildSchedule(req.Telapsed, markov.ScheduleOptions{
		Horizon:      req.Horizon,
		MaxIntervals: req.MaxIntervals,
	})
}

func (s *Server) respondSchedule(w http.ResponseWriter, key, model string, sched *markov.Schedule, cached bool) {
	resp := scheduleResponse{
		Key:       key,
		Model:     model,
		Intervals: sched.Len(),
		Horizon:   sched.Horizon(),
		Cached:    cached,
	}
	if sched.Len() > 0 {
		resp.T0 = sched.Intervals[0]
	}
	s.writeJSON(w, resp)
}

type scheduleDoc struct {
	Key       string       `json:"key"`
	Costs     markov.Costs `json:"costs"`
	Intervals []float64    `json:"intervals"`
	Ages      []float64    `json:"ages"`
	Ratios    []float64    `json:"ratios"`
}

func (s *Server) handleGetSchedule(w http.ResponseWriter, r *http.Request, key string) {
	if r.Method != http.MethodGet {
		s.errorf(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	e := storeGet(s.store, key)
	if e == nil {
		s.errorf(w, http.StatusNotFound, "no schedule for key %q", key)
		return
	}
	e.wait()
	if e.err != nil {
		s.errorf(w, http.StatusUnprocessableEntity, "schedule: %v", e.err)
		return
	}
	s.writeJSON(w, scheduleDoc{
		Key:       key,
		Costs:     e.sched.Costs,
		Intervals: e.sched.Intervals,
		Ages:      e.sched.Ages,
		Ratios:    e.sched.Ratios,
	})
}

// handleInterval is the hot path: an O(1) quantized schedule lookup
// rendered without encoding/json or url.Values. The SLO wrapper stays
// closure-free (serveInterval returns success) so the route's
// allocation budget is untouched.
func (s *Server) handleInterval(w http.ResponseWriter, r *http.Request, key string) {
	start := time.Now()
	ok := s.serveInterval(w, r, key, start)
	s.sloInterval.Observe(time.Since(start).Seconds(), ok)
}

func (s *Server) serveInterval(w http.ResponseWriter, r *http.Request, key string, start time.Time) bool {
	if r.Method != http.MethodGet {
		s.errorf(w, http.StatusMethodNotAllowed, "GET only")
		return false
	}
	if !s.limInterval.acquire() {
		s.shed(w, "interval")
		return false
	}
	defer s.limInterval.release()
	if s.hookAdmitted != nil {
		s.hookAdmitted("interval")
	}
	age, ok := ageFromQuery(r.URL.RawQuery)
	if !ok {
		s.errorf(w, http.StatusBadRequest, "age: must be a finite number ≥ 0")
		return false
	}
	var buf [96]byte
	status, body, err := lookupInterval(s, key, age, buf[:0])
	switch status {
	case http.StatusNotFound:
		s.errorf(w, status, "no schedule for key %q", key)
		return false
	case http.StatusUnprocessableEntity:
		s.errorf(w, status, "schedule: %v", err)
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	s.m.intervalLat.Observe(time.Since(start).Seconds())
	return true
}

// errEmptySchedule is lookupInterval's 422 for a build that succeeded
// but planned no interval.
var errEmptySchedule = errors.New("no interval planned")

// lookupInterval is the interval route's whole lookup — store probe,
// wait for an in-flight build, the O(1) LookupFrom threading the
// entry's shared hint, the body rendered into buf — and the one place
// its outcome becomes a status, so the net/http and fast listeners
// cannot answer the same request differently: 200 with the body, 404
// for a key nobody scheduled, 422 (with the cause) for a key whose
// build failed or planned nothing. The key may alias a read buffer.
func lookupInterval[K string | []byte](s *Server, key K, age float64, buf []byte) (status int, body []byte, err error) {
	e := storeGet(s.store, key)
	if e == nil {
		return http.StatusNotFound, nil, nil
	}
	e.wait()
	if e.err != nil {
		return http.StatusUnprocessableEntity, nil, e.err
	}
	T, idx, extended, ok := e.sched.LookupFrom(age, int(e.hint.Load()))
	if !ok {
		return http.StatusUnprocessableEntity, nil, errEmptySchedule
	}
	e.hint.Store(int32(idx))
	return http.StatusOK, appendIntervalBody(buf, T, idx, extended), nil
}

// intervalKey returns the key of an interval-route path,
// /v1/schedule/{key}/interval with a non-empty, slash-free key — the
// route split of both listeners.
func intervalKey[P string | []byte](path P) (key P, ok bool) {
	const pre, suf = "/v1/schedule/", "/interval"
	if len(path) <= len(pre)+len(suf) || string(path[:len(pre)]) != pre || string(path[len(path)-len(suf):]) != suf {
		return key, false
	}
	key = path[len(pre) : len(path)-len(suf)]
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key, false
		}
	}
	return key, true
}

// ageFromQuery extracts the age parameter from a raw query string —
// the first "age=" pair, whatever else the query carries — for both
// listeners (the fast path passes bytes of its read buffer). Absent age
// means 0 (a fresh resource); a malformed, negative, or non-finite age
// is rejected.
func ageFromQuery[Q string | []byte](q Q) (float64, bool) {
	for start := 0; start < len(q); {
		end := start
		for end < len(q) && q[end] != '&' {
			end++
		}
		if kv := q[start:end]; len(kv) >= len("age=") && string(kv[:len("age=")]) == "age=" {
			v, err := strconv.ParseFloat(string(kv[len("age="):]), 64)
			return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
		}
		start = end + 1
	}
	return 0, true
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The header is out; nothing useful left to do.
		_ = err
	}
}

// Running is a live listener serving a Server, with graceful drain.
type Running struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// Start binds addr (":0" for an ephemeral port) and serves s on it.
func (s *Server) Start(addr string) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rn := &Running{
		srv: &http.Server{
			Handler: s,
			// Slowloris guard; generous because ckpt-load batches.
			ReadHeaderTimeout: 30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(rn.done)
		if err := rn.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails this way on a broken listener; the next
			// Shutdown returns the real story.
			_ = err
		}
	}()
	return rn, nil
}

// Addr is the bound listen address.
func (rn *Running) Addr() net.Addr { return rn.ln.Addr() }

// Shutdown gracefully drains: no new connections, in-flight requests
// run to completion (until ctx expires), and the serve goroutine has
// exited by the time it returns.
func (rn *Running) Shutdown(ctx context.Context) error {
	err := rn.srv.Shutdown(ctx)
	<-rn.done
	return err
}
