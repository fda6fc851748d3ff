// Command ckpt-load is the open-loop load harness for ckpt-served: it
// installs a key space of schedules, then drives interval lookups at a
// fixed arrival rate and reports the latency distribution and shed
// rate the server actually delivered (DESIGN.md §15).
//
// Usage:
//
//	ckpt-load -addr 127.0.0.1:7420 -rate 100000 -duration 10s
//	ckpt-load -self -rate 120000 -duration 5s -zipf 1.2 -cold 0.01
//
// The generator is open-loop: request k is *scheduled* at k/rate
// seconds and its latency is measured from that scheduled arrival, not
// from when the client got around to writing it — so a server that
// falls behind shows the queueing delay it inflicted, instead of the
// closed-loop mirage where a slow server throttles its own offered
// load. Requests are pipelined over a few persistent connections with
// batched writes, which is what lets one box offer 100k+ req/s to a
// server sharing the same cores.
//
// Key choice is Zipf-skewed (-zipf, 0 = uniform) over -keys installed
// schedules, with a -cold fraction aimed at keys that were never
// installed (the fleet's "unknown machine" lookups, answered 404).
// With -self the harness boots an in-process ckpt-served-equivalent on
// a loopback port first — the mode the -short CI smoke runs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/serve"
)

type config struct {
	addr     string
	fastAddr string
	self     bool
	rate     float64
	duration time.Duration
	conns    int
	keys     int
	zipf     float64
	cold     float64
	seed     int64
	c        float64
	mtbf     float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "ckpt-served main API address (host:port); empty requires -self")
	flag.StringVar(&cfg.fastAddr, "fast-addr", "", "ckpt-served fast-path address; measured lookups go here when set")
	flag.BoolVar(&cfg.self, "self", false, "boot an in-process server (main + fast path) on loopback and load that")
	flag.Float64Var(&cfg.rate, "rate", 100000, "offered arrival rate, requests/sec")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "measured load duration")
	flag.IntVar(&cfg.conns, "conns", 4, "persistent pipelined connections")
	flag.IntVar(&cfg.keys, "keys", 512, "installed schedule keys")
	flag.Float64Var(&cfg.zipf, "zipf", 1.1, "Zipf skew s for key choice (0 = uniform, else s > 1)")
	flag.Float64Var(&cfg.cold, "cold", 0, "fraction of lookups aimed at never-installed keys")
	flag.Int64Var(&cfg.seed, "seed", 1, "deterministic seed for key choice")
	flag.Float64Var(&cfg.c, "c", 60, "checkpoint cost (seconds) for the installed schedules")
	flag.Float64Var(&cfg.mtbf, "mtbf", 3600, "mean availability (seconds) for the installed schedules")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured phase here")
	flag.Parse()

	var ck cliflag.Checker
	ck.Positive("rate", cfg.rate)
	ck.PositiveInt("conns", cfg.conns)
	ck.PositiveInt("keys", cfg.keys)
	ck.Probability("cold", cfg.cold)
	ck.NonNegative("zipf", cfg.zipf)
	ck.Positive("c", cfg.c)
	ck.Positive("mtbf", cfg.mtbf)
	if cfg.zipf != 0 && cfg.zipf <= 1 {
		ck.Check("zipf", fmt.Errorf("must be 0 (uniform) or > 1, got %g", cfg.zipf))
	}
	if cfg.addr == "" && !cfg.self {
		ck.Check("addr", fmt.Errorf("required unless -self"))
	}
	if err := ck.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-load:", err)
		os.Exit(1)
	}

	var res result
	err := cliflag.Diagnose("ckpt-load", *cpuprofile, "", false, nil, func() (err error) {
		res, err = run(cfg)
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-load:", err)
		os.Exit(1)
	}
	fmt.Print(res.report())
}

// result aggregates one load run.
type result struct {
	offered             float64 // configured arrival rate
	achieved            float64 // completed responses per second of wall time
	completed           int
	ok                  int
	shed                int // 429
	notFound            int // 404 (cold keys)
	other               int
	p50, p99, p999, max time.Duration
	// series is the per-second breakdown: completions binned by the wall
	// second (relative to the common epoch) each response came back in.
	series []second
}

// second is one wall-second of the measured phase.
type second struct {
	done     int // responses completed in this second
	p50, p99 time.Duration
}

func (r result) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %.0f req/s, achieved %.0f req/s (%d responses)\n", r.offered, r.achieved, r.completed)
	fmt.Fprintf(&b, "  ok %d, shed %d (%.2f%%), cold-miss %d, other %d\n",
		r.ok, r.shed, 100*float64(r.shed)/float64(max(r.completed, 1)), r.notFound, r.other)
	fmt.Fprintf(&b, "  latency from scheduled arrival: p50 %v  p99 %v  p999 %v  max %v\n",
		r.p50.Round(time.Microsecond), r.p99.Round(time.Microsecond),
		r.p999.Round(time.Microsecond), r.max.Round(time.Microsecond))
	if len(r.series) > 1 {
		rates := make([]float64, len(r.series))
		for i, s := range r.series {
			rates[i] = float64(s.done)
		}
		fmt.Fprintf(&b, "  per-second throughput: %s\n", obs.Sparkline(rates, len(rates)))
		fmt.Fprintf(&b, "  %4s %10s %12s %12s\n", "sec", "done", "p50", "p99")
		for i, s := range r.series {
			fmt.Fprintf(&b, "  %4d %10d %12v %12v\n", i, s.done,
				s.p50.Round(time.Microsecond), s.p99.Round(time.Microsecond))
		}
	}
	return b.String()
}

// buildSeries bins completion times (offset from the common epoch) into
// whole seconds and computes each second's latency quantiles. doneAt
// and lats are parallel.
func buildSeries(doneAt []time.Duration, lats []time.Duration) []second {
	if len(doneAt) == 0 {
		return nil
	}
	maxAt := doneAt[0]
	for _, d := range doneAt {
		if d > maxAt {
			maxAt = d
		}
	}
	bins := make([][]time.Duration, int(maxAt/time.Second)+1)
	for i, d := range doneAt {
		b := int(d / time.Second)
		if b < 0 {
			b = 0
		}
		bins[b] = append(bins[b], lats[i])
	}
	out := make([]second, len(bins))
	for i, lat := range bins {
		out[i].done = len(lat)
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		q := func(p float64) time.Duration { return lat[min(int(p*float64(len(lat))), len(lat)-1)] }
		out[i].p50, out[i].p99 = q(0.50), q(0.99)
	}
	return out
}

func run(cfg config) (result, error) {
	addr, fastAddr := cfg.addr, cfg.fastAddr
	if cfg.self {
		s := serve.New(serve.Options{})
		rn, err := s.Start("127.0.0.1:0")
		if err != nil {
			return result{}, fmt.Errorf("self server: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			rn.Shutdown(ctx)
		}()
		fr, err := s.StartFast("127.0.0.1:0")
		if err != nil {
			return result{}, fmt.Errorf("self fast path: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			fr.Shutdown(ctx)
		}()
		addr, fastAddr = rn.Addr().String(), fr.Addr().String()
	}
	if err := install(addr, cfg); err != nil {
		return result{}, err
	}
	// Installs go to the main API; the measured lookups hit the fast
	// path when one is available.
	target := fastAddr
	if target == "" {
		target = addr
	}
	return load(target, cfg)
}

// install populates the server's key space: one memoryless schedule
// per key, built from explicit parameters so setup is cheap.
func install(addr string, cfg config) error {
	client := &http.Client{Timeout: 30 * time.Second}
	url := "http://" + addr + "/v1/schedule"
	for i := 0; i < cfg.keys; i++ {
		body := fmt.Sprintf(`{"key":"w%d","model":"exp","params":[%g],"c":%g}`,
			i, 1/cfg.mtbf, cfg.c)
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return fmt.Errorf("install key %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return fmt.Errorf("install key %d: %d %s", i, resp.StatusCode, msg)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

// pickKeys draws the per-request key index sequence: Zipf or uniform
// over the installed keys, with a cold fraction redirected to
// never-installed ones (negative index).
func pickKeys(cfg config, n int) []int32 {
	rng := rand.New(rand.NewSource(cfg.seed))
	var zipf *rand.Zipf
	if cfg.zipf > 1 {
		zipf = rand.NewZipf(rng, cfg.zipf, 1, uint64(cfg.keys-1))
	}
	idx := make([]int32, n)
	for i := range idx {
		if cfg.cold > 0 && rng.Float64() < cfg.cold {
			idx[i] = int32(-1 - rng.Intn(cfg.keys)) // cold key c<n>, never installed
			continue
		}
		if zipf != nil {
			idx[i] = int32(zipf.Uint64())
		} else {
			idx[i] = int32(rng.Intn(cfg.keys))
		}
	}
	return idx
}

// requestBytes pre-renders the pipelined GET for each warm (and, on
// demand, cold) key so the hot loop only copies bytes.
func requestBytes(key string) []byte {
	return []byte("GET /v1/schedule/" + key + "/interval?age=137.5 HTTP/1.1\r\nHost: l\r\n\r\n")
}

// load drives the measured open-loop phase.
func load(addr string, cfg config) (result, error) {
	total := int(cfg.rate * cfg.duration.Seconds())
	if total < cfg.conns {
		total = cfg.conns
	}
	keyIdx := pickKeys(cfg, total)
	warm := make([][]byte, cfg.keys)
	for i := range warm {
		warm[i] = requestBytes("w" + strconv.Itoa(i))
	}
	cold := map[int32][]byte{}
	reqOf := func(k int32) []byte {
		if k >= 0 {
			return warm[k]
		}
		b, ok := cold[k]
		if !ok {
			b = requestBytes("c" + strconv.Itoa(int(-1-k)))
			cold[k] = b
		}
		return b
	}

	// Interleave: request k goes to connection k%conns, keeping each
	// connection's sub-stream at the same rate and its arrival offsets
	// strictly increasing (pipelined responses return in order).
	type connWork struct {
		reqs [][]byte
		offs []time.Duration // scheduled arrival offsets from the common start
	}
	work := make([]connWork, cfg.conns)
	gap := time.Duration(float64(time.Second) / cfg.rate)
	for k := 0; k < total; k++ {
		c := k % cfg.conns
		work[c].reqs = append(work[c].reqs, reqOf(keyIdx[k]))
		work[c].offs = append(work[c].offs, time.Duration(k)*gap)
	}

	conns := make([]net.Conn, cfg.conns)
	for i := range conns {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return result{}, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer c.Close()
		conns[i] = c
	}

	results := make([]connResult, cfg.conns)
	start := time.Now().Add(50 * time.Millisecond) // common epoch, after all goroutines are up
	var wg sync.WaitGroup
	for i := 0; i < cfg.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = driveConn(conns[i], work[i].reqs, work[i].offs, start)
		}(i)
	}
	wg.Wait()

	var res result
	res.offered = cfg.rate
	var all, doneAt []time.Duration
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return result{}, fmt.Errorf("connection %d: %w", i, r.err)
		}
		res.ok += r.ok
		res.shed += r.shed
		res.notFound += r.nf
		res.other += r.other
		// A response's completion offset from the epoch is its scheduled
		// arrival plus its measured latency.
		for j, l := range r.lat {
			doneAt = append(doneAt, work[i].offs[j]+l)
		}
		all = append(all, r.lat...)
	}
	res.completed = len(all)
	if res.completed == 0 {
		return result{}, fmt.Errorf("no responses completed")
	}
	// Wall time of the measured phase: the schedule spans total/rate
	// seconds; completions past that are the backlog draining.
	res.achieved = float64(res.completed) / time.Since(start).Seconds()
	res.series = buildSeries(doneAt, all)
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	q := func(p float64) time.Duration { return all[min(int(p*float64(len(all))), len(all)-1)] }
	res.p50, res.p99, res.p999, res.max = q(0.50), q(0.99), q(0.999), all[len(all)-1]
	return res, nil
}

// connResult is one connection's share of the run.
type connResult struct {
	lat                 []time.Duration
	ok, shed, nf, other int
	err                 error
}

// driveConn runs one pipelined connection: a writer that releases each
// request at its scheduled offset (batching everything already due
// into one flush) and a reader that attributes each response's latency
// to that scheduled arrival.
func driveConn(conn net.Conn, reqs [][]byte, offs []time.Duration, start time.Time) connResult {
	res := connResult{lat: make([]time.Duration, 0, len(reqs))}
	writeErr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriterSize(conn, 64<<10)
		for i, req := range reqs {
			if d := time.Until(start.Add(offs[i])); d > 0 {
				// Everything due has been buffered; ship it, then sleep
				// until the next arrival.
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
				time.Sleep(d)
			}
			if _, err := bw.Write(req); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- bw.Flush()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	for i := range reqs {
		code, err := readResponse(br)
		if err != nil {
			res.err = fmt.Errorf("response %d: %w", i, err)
			break
		}
		res.lat = append(res.lat, time.Since(start.Add(offs[i])))
		switch code {
		case http.StatusOK:
			res.ok++
		case http.StatusTooManyRequests:
			res.shed++
		case http.StatusNotFound:
			res.nf++
		default:
			res.other++
		}
	}
	if err := <-writeErr; err != nil && res.err == nil {
		res.err = fmt.Errorf("write: %w", err)
	}
	return res
}

// readResponse parses one HTTP/1.1 response off the pipelined stream
// — status code, headers for the body length, body discarded — without
// net/http's per-response allocations.
func readResponse(br *bufio.Reader) (code int, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 NNN ..."
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	code, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("status line %q", line)
	}
	contentLen := -1
	chunked := false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 { // bare CRLF: end of headers
			break
		}
		if v, ok := headerValue(line, "Content-Length:"); ok {
			contentLen, err = strconv.Atoi(v)
			if err != nil {
				return 0, fmt.Errorf("content-length %q", v)
			}
		} else if v, ok := headerValue(line, "Transfer-Encoding:"); ok && strings.Contains(v, "chunked") {
			chunked = true
		}
	}
	switch {
	case chunked:
		if err := discardChunked(br); err != nil {
			return 0, err
		}
	case contentLen > 0:
		if _, err := br.Discard(contentLen); err != nil {
			return 0, err
		}
	}
	return code, nil
}

// headerValue matches a header line against a canonical "Name:" prefix
// (ASCII case-insensitive) and returns the trimmed value.
func headerValue(line []byte, name string) (string, bool) {
	if len(line) < len(name) {
		return "", false
	}
	for i := 0; i < len(name); i++ {
		c, n := line[i], name[i]
		if c != n && c|0x20 != n|0x20 {
			return "", false
		}
	}
	return strings.TrimSpace(string(line[len(name) : len(line)-2])), true
}

// discardChunked consumes a chunked body (ckpt-served answers with
// Content-Length, but a proxy in between may re-frame).
func discardChunked(br *bufio.Reader) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(strings.TrimSpace(string(line)), 16, 64)
		if err != nil {
			return fmt.Errorf("chunk size %q", line)
		}
		if _, err := br.Discard(int(n) + 2); err != nil { // chunk + CRLF
			return err
		}
		if n == 0 {
			return nil
		}
	}
}
