package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// readFastResponse parses one HTTP/1.1 response off a test connection.
func readFastResponse(t *testing.T, br *bufio.Reader) (code int, body string, headers map[string]string) {
	t.Helper()
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("status line: %v", err)
	}
	code, err = strconv.Atoi(status[9:12])
	if err != nil {
		t.Fatalf("status line %q", status)
	}
	headers = map[string]string{}
	contentLen := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("header: %v", err)
		}
		if line == "\r\n" {
			break
		}
		name, val, _ := strings.Cut(strings.TrimRight(line, "\r\n"), ": ")
		headers[name] = val
		if name == "Content-Length" {
			contentLen, _ = strconv.Atoi(val)
		}
	}
	buf := make([]byte, contentLen)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Fatalf("body: %v", err)
	}
	return code, string(buf), headers
}

// startFastTest builds a server with two schedules and a running fast
// listener, plus a connected client.
func startFastTest(t *testing.T, opts Options) (*Server, *FastRunning, net.Conn, *bufio.Reader) {
	t.Helper()
	s := New(opts)
	for _, key := range []string{"m1", "m2"} {
		w := postJSON(t, s, "/v1/schedule", scheduleRequest{
			Key: key, Model: "weibull", Data: testHistory(), C: 60,
		})
		if w.Code != 200 {
			t.Fatalf("install %s = %d, body %s", key, w.Code, w.Body)
		}
	}
	fr, err := s.StartFast("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start fast: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fr.Shutdown(ctx)
	})
	conn, err := net.Dial("tcp", fr.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return s, fr, conn, bufio.NewReader(conn)
}

// TestFastPathPipeline drives a pipelined batch — warm keys at several
// ages, a bare /interval, a cold key — and checks every response,
// including that 200 bodies are byte-identical to the net/http plane
// and that the cold-key 404 does NOT take the connection down.
func TestFastPathPipeline(t *testing.T) {
	s, _, conn, br := startFastTest(t, Options{})
	reqs := []string{
		"GET /v1/schedule/m1/interval?age=0 HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /v1/schedule/m1/interval?age=9999999 HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /v1/schedule/nobody/interval?age=5 HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /v1/schedule/m2/interval HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /v1/schedule/m2/interval?age=137.5 HTTP/1.1\r\nHost: t\r\n\r\n",
	}
	if _, err := io.WriteString(conn, strings.Join(reqs, "")); err != nil {
		t.Fatalf("write: %v", err)
	}
	wantCodes := []int{200, 200, 404, 200, 200}
	bodies := make([]string, len(reqs))
	for i, want := range wantCodes {
		code, body, _ := readFastResponse(t, br)
		if code != want {
			t.Fatalf("response %d = %d (%s), want %d", i, code, body, want)
		}
		bodies[i] = body
	}
	// Byte-identical to the main plane for the same lookups.
	for i, path := range []string{
		"/v1/schedule/m1/interval?age=0",
		"/v1/schedule/m1/interval?age=9999999",
		"", // cold key: bodies differ on purpose (no key echo on the fast path)
		"/v1/schedule/m2/interval",
		"/v1/schedule/m2/interval?age=137.5",
	} {
		if path == "" {
			continue
		}
		w := getPath(s, path)
		if w.Body.String() != bodies[i] {
			t.Errorf("plane mismatch for %s:\n  fast: %q\n  main: %q", path, bodies[i], w.Body.String())
		}
	}
	if !strings.Contains(bodies[1], `"extended":true`) {
		t.Errorf("beyond-horizon body %q lacks extended flag", bodies[1])
	}
}

// TestFastPathBadRequest pins the terminal 400: malformed age, then
// the connection closes.
func TestFastPathBadRequest(t *testing.T) {
	for _, req := range []string{
		"GET /v1/schedule/m1/interval?age=zebra HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /v1/schedule/m1/interval?age=-1 HTTP/1.1\r\nHost: t\r\n\r\n",
		"POST /v1/fit HTTP/1.1\r\nHost: t\r\n\r\n",
		"nonsense\r\n\r\n",
	} {
		_, _, conn, br := startFastTest(t, Options{})
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatalf("write: %v", err)
		}
		code, _, headers := readFastResponse(t, br)
		if code != 400 {
			t.Errorf("%q = %d, want 400", req, code)
		}
		if headers["Connection"] != "close" {
			t.Errorf("%q: Connection = %q, want close", req, headers["Connection"])
		}
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("%q: connection still open after 400 (err=%v)", req, err)
		}
		conn.Close()
	}
}

// TestFastPathShed fills the interval limiter and checks the fast
// path sheds with 429 + Retry-After — on a connection that stays up.
func TestFastPathShed(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, conn, br := startFastTest(t, Options{
		Registry:   reg,
		Interval:   RouteLimit{MaxInFlight: 1, MaxQueued: -1, MaxWait: -1},
		RetryAfter: 2 * time.Second,
	})
	// Occupy the only slot from the outside; the limiter is shared
	// between both planes, so the fast path must shed.
	if !s.limInterval.acquire() {
		t.Fatal("could not take the slot")
	}
	req := "GET /v1/schedule/m1/interval?age=0 HTTP/1.1\r\nHost: t\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	code, _, headers := readFastResponse(t, br)
	if code != 429 {
		t.Fatalf("shed = %d, want 429", code)
	}
	if headers["Retry-After"] != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", headers["Retry-After"])
	}
	s.limInterval.release()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatalf("write after release: %v", err)
	}
	if code, _, _ := readFastResponse(t, br); code != 200 {
		t.Fatalf("after release = %d, want 200", code)
	}
	if got := reg.Snapshot().Counters["serve_shed_total"]; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestFastPathDrain checks graceful shutdown: an idle keep-alive
// connection is released within the drain poll, the listener closes,
// and Shutdown returns without forcing the context.
func TestFastPathDrain(t *testing.T) {
	_, fr, conn, br := startFastTest(t, Options{})
	// One request proves the connection is live and then sits idle.
	req := "GET /v1/schedule/m1/interval?age=0 HTTP/1.1\r\nHost: t\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code, _, _ := readFastResponse(t, br); code != 200 {
		t.Fatalf("probe = %d, want 200", code)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fr.Shutdown(ctx); err != nil {
		t.Fatalf("drain of an idle connection forced the context: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("drain took %v, want about one poll interval", d)
	}
	// Listener released.
	if _, err := net.DialTimeout("tcp", fr.Addr().String(), time.Second); err == nil {
		t.Error("fast listener still accepting after Shutdown")
	}
	// The idle connection was closed.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("idle connection not closed by drain (err=%v)", err)
	}
}

// TestFastPathKeyTooLong pins the key-length bound: a key longer than
// the copy buffer is rejected as a 400, not silently truncated into
// somebody else's schedule.
func TestFastPathKeyTooLong(t *testing.T) {
	_, _, conn, br := startFastTest(t, Options{})
	long := strings.Repeat("k", 300)
	req := fmt.Sprintf("GET /v1/schedule/%s/interval?age=0 HTTP/1.1\r\nHost: t\r\n\r\n", long)
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code, _, _ := readFastResponse(t, br); code != 400 {
		t.Errorf("overlong key = %d, want 400", code)
	}
}

// TestIntervalPlanesAgree asks both listeners the same interval
// questions — an installed key, a key nobody scheduled, a key whose
// build failed (the store memoizes the error) — and requires the same
// status from each and, on 200, the same bytes: both planes answer
// through lookupInterval, so there is nothing to drift. It also holds
// the shared lookup to the fast path's budget of zero allocations.
func TestIntervalPlanesAgree(t *testing.T) {
	s, fr, _, _ := startFastTest(t, Options{})
	if w := postJSON(t, s, "/v1/schedule", scheduleRequest{
		Key: "broken", Model: "weibull", Params: []float64{-1, 3409}, C: 60,
	}); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("installing an impossible Weibull = %d (%s), want 422", w.Code, w.Body)
	}
	rn, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rn.Shutdown(ctx)
	})

	for _, c := range []struct {
		name, target string
		want         int
	}{
		{"installed key", "/v1/schedule/m1/interval?age=137.5", http.StatusOK},
		{"installed key, fresh resource", "/v1/schedule/m2/interval", http.StatusOK},
		{"unknown key", "/v1/schedule/nobody/interval?age=5", http.StatusNotFound},
		{"failed-build key", "/v1/schedule/broken/interval?age=5", http.StatusUnprocessableEntity},
		// Both planes read the query through ageFromQuery: the first age
		// pair, wherever it stands, and 0 without one.
		{"age, then another pair", "/v1/schedule/m1/interval?age=5&x=1", http.StatusOK},
		{"another pair, no age", "/v1/schedule/m1/interval?x=1", http.StatusOK},
		{"another pair, then age", "/v1/schedule/m1/interval?x=1&age=5", http.StatusOK},
		{"age twice", "/v1/schedule/m1/interval?age=5&age=7", http.StatusOK},
		{"empty query", "/v1/schedule/m1/interval?", http.StatusOK},
		{"bad age behind another pair", "/v1/schedule/m1/interval?x=1&age=-5", http.StatusBadRequest},
	} {
		var codes [2]int
		var bodies [2]string
		for i, addr := range []string{rn.Addr().String(), fr.Addr().String()} {
			rsp, err := http.Get("http://" + addr + c.target)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			b, err := io.ReadAll(rsp.Body)
			rsp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			codes[i], bodies[i] = rsp.StatusCode, string(b)
		}
		if codes[0] != c.want || codes[1] != c.want {
			t.Errorf("%s: net/http plane %d, fast plane %d, want %d on both", c.name, codes[0], codes[1], c.want)
		}
		if c.want == http.StatusOK && bodies[0] != bodies[1] {
			t.Errorf("%s: bodies differ:\nnet/http %q\nfast     %q", c.name, bodies[0], bodies[1])
		}
	}

	key := []byte("m1")
	var scratch [96]byte
	if n := testing.AllocsPerRun(200, func() {
		if status, _, _ := lookupInterval(s, key, 137.5, scratch[:0]); status != http.StatusOK {
			t.Errorf("lookup = %d", status)
		}
	}); n != 0 {
		t.Errorf("lookupInterval over a byte key allocates %.0f times per call, want 0", n)
	}
	line := []byte("GET /v1/schedule/m1/interval?x=1&age=137.5 HTTP/1.1\r\n")
	if n := testing.AllocsPerRun(200, func() {
		if k, age, ok := parseFastRequest(line); !ok || string(k) != "m1" || age != 137.5 {
			t.Errorf("parse = %q, %g, %v", k, age, ok)
		}
	}); n != 0 {
		t.Errorf("parseFastRequest allocates %.0f times per call, want 0", n)
	}
}

// FuzzFastRequest holds the fast listener's request parser to net/http's
// reading of the same line: http.ReadRequest for the request line, then
// intervalKey and ageFromQuery as ServeHTTP applies them. Whatever the
// fast plane accepts, net/http routes to the interval handler with the
// same key and the same age; whatever net/http would serve there, the
// fast plane accepts — unless the path carries a percent-escape, the
// one spelling the fast plane refuses rather than decode.
func FuzzFastRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /v1/schedule/m1/interval?age=137.5 HTTP/1.1\r\n",
		"GET /v1/schedule/m1/interval HTTP/1.0\n",
		"GET /v1/schedule/m1/interval?x=1&age=5&age=7 HTTP/1.1\r\n",
		"GET /v1/schedule/m1/interval? HTTP/1.1\r\n",
		"GET /v1/schedule/m%31/interval?age=5%25 HTTP/1.1\r\n",
		"GET /v1/schedule/a?b/interval HTTP/1.1\r\n",
		"GET /v1/schedule/a/b/interval HTTP/1.1\r\n",
		"GET /v1/schedule//interval HTTP/1.1\r\n",
		"GET /v1/schedule/m1/interval?age=nan HTTP/1.1\r\n",
		"GET /v1/schedule/m1/interval HTTP/1.1 \r\n",
		"GET /v1/schedule/m1/interval  HTTP/1.1\r\r\n",
		"GET /v1/schedule/m\x7f/interval HTTP/2.0\r\n",
		"POST /v1/schedule/m1/interval HTTP/1.1\r\n",
		"GET /v1/schedule/m1 HTTP/1.1\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The listener hands the parser one line, through its newline.
		line, _, _ := bytes.Cut(data, []byte("\n"))
		line = append(line[:len(line):len(line)], '\n')
		key, age, ok := parseFastRequest(line)

		var wantOK bool
		var wantKey string
		var wantAge float64
		req, err := http.ReadRequest(bufio.NewReader(io.MultiReader(bytes.NewReader(line), strings.NewReader("Host: f\r\n\r\n"))))
		if err == nil && req.Method == http.MethodGet && req.ProtoMajor == 1 {
			if wantKey, wantOK = intervalKey(req.URL.Path); wantOK {
				wantAge, wantOK = ageFromQuery(req.URL.RawQuery)
			}
			if rawPath, _, _ := strings.Cut(req.RequestURI, "?"); strings.Contains(rawPath, "%") {
				wantOK = false
			}
		}
		if ok != wantOK {
			t.Fatalf("%q: fast plane accepts = %v, net/http = %v (err %v)", line, ok, wantOK, err)
		}
		if ok && (string(key) != wantKey || age != wantAge) {
			t.Fatalf("%q: fast plane reads key %q age %g, net/http key %q age %g", line, key, age, wantKey, wantAge)
		}
	})
}
