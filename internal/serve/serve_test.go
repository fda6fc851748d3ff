package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// testHistory is a deterministic availability history (seconds) that
// every model family fits cleanly.
func testHistory() []float64 {
	data := make([]float64, 64)
	for i := range data {
		data[i] = 900 + 250*float64(i%11) + 13*float64(i)
	}
	return data
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeInto(t *testing.T, w *httptest.ResponseRecorder, dst any) {
	t.Helper()
	if err := json.NewDecoder(w.Body).Decode(dst); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestServeRoundTrip walks the API end to end: fit, build a schedule,
// read it back whole, and look intervals up by age — including past
// the horizon, where the lookup reports extension.
func TestServeRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Registry: reg})

	w := postJSON(t, s, "/v1/fit", fitRequest{Key: "m1", Model: "weibull", Data: testHistory()})
	if w.Code != http.StatusOK {
		t.Fatalf("fit = %d, body %s", w.Code, w.Body)
	}
	var fr fitResponse
	decodeInto(t, w, &fr)
	if fr.Model != "weibull" || len(fr.Params) != 2 || fr.N != 64 {
		t.Fatalf("fit response = %+v", fr)
	}

	w = postJSON(t, s, "/v1/schedule", scheduleRequest{
		Key: "m1", Model: "weibull", Data: testHistory(), C: 60,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("schedule = %d, body %s", w.Code, w.Body)
	}
	var sr scheduleResponse
	decodeInto(t, w, &sr)
	if sr.Cached || sr.Intervals == 0 || sr.T0 <= 0 {
		t.Fatalf("schedule response = %+v", sr)
	}
	if got := s.Schedules(); got != 1 {
		t.Fatalf("Schedules() = %d, want 1", got)
	}

	// A second POST for the same key is served by the stored build.
	w = postJSON(t, s, "/v1/schedule", scheduleRequest{
		Key: "m1", Model: "weibull", Data: testHistory(), C: 60,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("repeat schedule = %d, body %s", w.Code, w.Body)
	}
	var sr2 scheduleResponse
	decodeInto(t, w, &sr2)
	if !sr2.Cached || sr2.Intervals != sr.Intervals {
		t.Fatalf("repeat schedule response = %+v, want cached with %d intervals", sr2, sr.Intervals)
	}

	w = getPath(s, "/v1/schedule/m1")
	if w.Code != http.StatusOK {
		t.Fatalf("get schedule = %d, body %s", w.Code, w.Body)
	}
	var doc scheduleDoc
	decodeInto(t, w, &doc)
	if len(doc.Intervals) != sr.Intervals || doc.Costs.C != 60 {
		t.Fatalf("schedule doc = %d intervals C=%g", len(doc.Intervals), doc.Costs.C)
	}

	var iv struct {
		T        float64 `json:"t"`
		Index    int     `json:"index"`
		Extended bool    `json:"extended"`
	}
	w = getPath(s, "/v1/schedule/m1/interval?age=0")
	if w.Code != http.StatusOK {
		t.Fatalf("interval = %d, body %s", w.Code, w.Body)
	}
	decodeInto(t, w, &iv)
	if iv.T != doc.Intervals[0] || iv.Index != 0 || iv.Extended {
		t.Fatalf("interval(0) = %+v, want T=%g index=0", iv, doc.Intervals[0])
	}

	// Absent age means a fresh resource (age 0).
	w = getPath(s, "/v1/schedule/m1/interval")
	if w.Code != http.StatusOK {
		t.Fatalf("interval sans age = %d, body %s", w.Code, w.Body)
	}

	// Beyond the horizon the final interval extends.
	w = getPath(s, fmt.Sprintf("/v1/schedule/m1/interval?age=%g", 100*doc.Ages[len(doc.Ages)-1]+1e6))
	decodeInto(t, w, &iv)
	if !iv.Extended || iv.Index != len(doc.Intervals)-1 {
		t.Fatalf("interval(beyond) = %+v, want extended last index", iv)
	}

	snap := reg.Snapshot()
	if snap.Counters["serve_schedule_builds_total"] != 1 {
		t.Errorf("builds = %d, want 1", snap.Counters["serve_schedule_builds_total"])
	}
	if snap.Counters["serve_schedule_coalesced_total"] != 1 {
		t.Errorf("coalesced = %d, want 1", snap.Counters["serve_schedule_coalesced_total"])
	}
	if snap.Counters["serve_requests_total"] == 0 || snap.Counters["serve_errors_total"] != 0 {
		t.Errorf("requests/errors = %d/%d", snap.Counters["serve_requests_total"], snap.Counters["serve_errors_total"])
	}
}

// TestServeScheduleFromParams plans from an explicit distribution
// instead of a history, and replace=true rebuilds in place.
func TestServeScheduleFromParams(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Registry: reg})
	req := scheduleRequest{Key: "p1", Model: "exp", Params: []float64{1.0 / 3600}, C: 30}
	w := postJSON(t, s, "/v1/schedule", req)
	if w.Code != http.StatusOK {
		t.Fatalf("schedule from params = %d, body %s", w.Code, w.Body)
	}
	var sr scheduleResponse
	decodeInto(t, w, &sr)
	if sr.Intervals != 1 {
		t.Fatalf("memoryless schedule has %d intervals, want 1", sr.Intervals)
	}

	req.Replace = true
	w = postJSON(t, s, "/v1/schedule", req)
	if w.Code != http.StatusOK {
		t.Fatalf("replace = %d, body %s", w.Code, w.Body)
	}
	decodeInto(t, w, &sr)
	if sr.Cached {
		t.Fatal("replace=true answered from the stored build")
	}
	if got := reg.Snapshot().Counters["serve_schedule_builds_total"]; got != 2 {
		t.Fatalf("builds after replace = %d, want 2", got)
	}
	if got := s.Schedules(); got != 1 {
		t.Fatalf("Schedules() after replace = %d, want 1", got)
	}
}

// TestServeValidation pins the failure semantics: malformed JSON and
// bad fields answer 400 with every field error joined in one body,
// fit-cache key reuse answers 409, unknown keys 404, bad age 400.
func TestServeValidation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Registry: reg})

	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/fit", strings.NewReader("{nope"))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", w.Code)
	}

	// Every invalid field must be named in the one 400 body.
	w = postJSON(t, s, "/v1/schedule", scheduleRequest{Model: "nope", C: -1, Telapsed: -2})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("invalid schedule = %d, body %s", w.Code, w.Body)
	}
	body := w.Body.String()
	for _, want := range []string{"key", "model", "data", "c must", "telapsed must"} {
		if !strings.Contains(body, want) {
			t.Errorf("400 body missing %q: %s", want, body)
		}
	}

	// Unknown method and routes.
	if w := getPath(s, "/v1/fit"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/fit = %d, want 405", w.Code)
	}
	if w := getPath(s, "/v1/schedule/none"); w.Code != http.StatusNotFound {
		t.Errorf("unknown key = %d, want 404", w.Code)
	}
	if w := getPath(s, "/v1/schedule/none/interval?age=1"); w.Code != http.StatusNotFound {
		t.Errorf("interval for unknown key = %d, want 404", w.Code)
	}
	if w := getPath(s, "/v1/schedule//interval?age=1"); w.Code != http.StatusNotFound {
		t.Errorf("interval with empty key = %d, want 404", w.Code)
	}
	if w := getPath(s, "/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", w.Code)
	}

	// Reusing a fit key with different data is a conflict, not a
	// silent hit (the sharded cache's keying contract).
	if w := postJSON(t, s, "/v1/fit", fitRequest{Key: "k", Model: "exp", Data: testHistory()}); w.Code != http.StatusOK {
		t.Fatalf("first fit = %d, body %s", w.Code, w.Body)
	}
	other := testHistory()
	other[0] *= 2
	if w := postJSON(t, s, "/v1/fit", fitRequest{Key: "k", Model: "exp", Data: other}); w.Code != http.StatusConflict {
		t.Errorf("key reuse = %d, want 409", w.Code)
	}

	// Malformed age values.
	postJSON(t, s, "/v1/schedule", scheduleRequest{Key: "k", Model: "exp", Data: testHistory(), C: 60})
	for _, q := range []string{"age=zebra", "age=-1", "age=Inf"} {
		if w := getPath(s, "/v1/schedule/k/interval?"+q); w.Code != http.StatusBadRequest {
			t.Errorf("interval?%s = %d, want 400", q, w.Code)
		}
	}
}

// TestServeOverflowingHistory: a finite history whose sums overflow
// float64 answers 422 on both routes, every time, and leaves its key
// answerable — the failed build completes its store entry instead of
// stranding later callers behind it, and the fit cache memoizes the
// error instead of a spent single-flight slot. Real connections, so a
// handler panic shows as a failed request rather than a dead test.
func TestServeOverflowingHistory(t *testing.T) {
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	status := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, tc := range []struct{ key, model, data string }{
		{"k1", "exponential", "[1,1e308,1e308]"},
		{"w1", "weibull", "[1e300,1e300,2e300]"},
	} {
		sched := fmt.Sprintf(`{"key":%q,"model":%q,"data":%s,"c":50}`, tc.key, tc.model, tc.data)
		for i := range 2 {
			if got := status(http.MethodPost, "/v1/schedule", sched); got != http.StatusUnprocessableEntity {
				t.Errorf("%s schedule POST %d = %d, want 422", tc.model, i+1, got)
			}
		}
		if got := status(http.MethodGet, "/v1/schedule/"+tc.key+"/interval?age=5", ""); got != http.StatusUnprocessableEntity {
			t.Errorf("%s interval = %d, want 422", tc.model, got)
		}
		fitBody := fmt.Sprintf(`{"key":"fit-%s","model":%q,"data":%s}`, tc.key, tc.model, tc.data)
		for i := range 2 {
			if got := status(http.MethodPost, "/v1/fit", fitBody); got != http.StatusUnprocessableEntity {
				t.Errorf("%s fit POST %d = %d, want 422", tc.model, i+1, got)
			}
		}
	}
}

// TestServeShed pins the overload contract: with the route full and no
// queue, the next request is shed with 429 and a Retry-After header,
// and the shed counter moves.
func TestServeShed(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{
		Registry:   reg,
		Interval:   RouteLimit{MaxInFlight: 1, MaxQueued: -1, MaxWait: -1},
		RetryAfter: 3 * time.Second,
	})
	postJSON(t, s, "/v1/schedule", scheduleRequest{Key: "k", Model: "exp", Data: testHistory(), C: 60})

	hold := make(chan struct{})
	admitted := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(route string) {
		if route == "interval" {
			once.Do(func() { close(admitted) })
			<-hold
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getPath(s, "/v1/schedule/k/interval?age=0")
	}()
	<-admitted

	w := getPath(s, "/v1/schedule/k/interval?age=0")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second interval = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	close(hold)
	wg.Wait()
	snap := reg.Snapshot()
	if snap.Counters["serve_shed_total"] != 1 {
		t.Errorf("shed = %d, want 1", snap.Counters["serve_shed_total"])
	}
	// Shed responses are counted as shed, not as errors.
	if snap.Counters["serve_errors_total"] != 0 {
		t.Errorf("errors = %d, want 0", snap.Counters["serve_errors_total"])
	}
	// The slot is free again.
	if w := getPath(s, "/v1/schedule/k/interval?age=0"); w.Code != http.StatusOK {
		t.Errorf("interval after release = %d, want 200", w.Code)
	}
}

// TestServeCoalesce hammers one cold key with concurrent builders:
// exactly one build runs, everyone else joins it.
func TestServeCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Registry: reg})
	const callers = 8
	var wg sync.WaitGroup
	codes := make([]int, callers)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, s, "/v1/schedule", scheduleRequest{
				Key: "cold", Model: "weibull", Data: testHistory(), C: 60,
			})
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("caller %d got %d", i, c)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_schedule_builds_total"]; got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	if got := snap.Counters["serve_schedule_coalesced_total"]; got != callers-1 {
		t.Errorf("coalesced = %d, want %d", got, callers-1)
	}
}

// TestServeStoreBound pins eviction: with a one-shard, three-entry
// store, a fourth schedule evicts the oldest finished one.
func TestServeStoreBound(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Registry: reg, MaxSchedules: 1})
	// MaxSchedules is split across shards (min 1 per shard), so pin the
	// behaviour through the store directly with a single shard.
	s.store = newScheduleStore(1, 3, &s.m)
	for _, k := range []string{"a", "b", "c", "d"} {
		w := postJSON(t, s, "/v1/schedule", scheduleRequest{Key: k, Model: "exp", Data: testHistory(), C: 60})
		if w.Code != http.StatusOK {
			t.Fatalf("schedule %s = %d", k, w.Code)
		}
	}
	if got := s.Schedules(); got != 3 {
		t.Fatalf("Schedules() = %d, want 3", got)
	}
	if w := getPath(s, "/v1/schedule/a"); w.Code != http.StatusNotFound {
		t.Errorf("evicted key a = %d, want 404", w.Code)
	}
	if w := getPath(s, "/v1/schedule/d"); w.Code != http.StatusOK {
		t.Errorf("resident key d = %d, want 200", w.Code)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_schedule_evictions_total"]; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := snap.Gauges["serve_schedules_resident"]; got != 3 {
		t.Errorf("resident gauge = %d, want 3", got)
	}
}

// TestServeGracefulDrain starts a real listener, holds a request in
// flight, and shuts down: the in-flight request completes, the
// listener is released (its address rebinds), and the serve goroutine
// has exited when Shutdown returns.
func TestServeGracefulDrain(t *testing.T) {
	s := New(Options{})
	postJSON(t, s, "/v1/schedule", scheduleRequest{Key: "k", Model: "exp", Data: testHistory(), C: 60})

	hold := make(chan struct{})
	admitted := make(chan struct{})
	var once sync.Once
	s.hookAdmitted = func(route string) {
		if route == "interval" {
			once.Do(func() { close(admitted) })
			<-hold
		}
	}
	rn, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + rn.Addr().String()

	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/v1/schedule/k/interval?age=0")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request = %d", resp.StatusCode)
			}
		}
		inflight <- err
	}()
	<-admitted

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- rn.Shutdown(ctx)
	}()
	// Drain must wait for the held request, not cut it off.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener must actually be released.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after Shutdown")
	}
	ln, err := net.Listen("tcp", rn.Addr().String())
	if err != nil {
		t.Fatalf("address not released after Shutdown: %v", err)
	}
	ln.Close()
}

// TestServeObservability exercises the side endpoints: healthz,
// Prometheus metrics (no expvar), and the trace snapshot (404 without
// a tracer, JSON with one).
func TestServeObservability(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Registry: reg})
	if w := getPath(s, "/healthz"); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Errorf("/healthz = %d %q", w.Code, w.Body)
	}
	if w := getPath(s, "/metrics"); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "serve_requests_total") {
		t.Errorf("/metrics = %d, body lacks serve_requests_total", w.Code)
	}
	if w := getPath(s, "/debug/vars"); w.Code != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", w.Code)
	}
	if w := getPath(s, "/debug/trace/snapshot"); w.Code != http.StatusNotFound {
		t.Errorf("trace snapshot without tracer = %d, want 404", w.Code)
	}

	tr := obs.NewTracer(obs.TracerOptions{})
	st := New(Options{Tracer: tr})
	postJSON(t, st, "/v1/fit", fitRequest{Key: "m", Model: "exp", Data: testHistory()})
	if w := getPath(st, "/debug/trace/snapshot"); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "serve.fit") {
		t.Errorf("trace snapshot = %d, body lacks serve.fit span", w.Code)
	}
}
