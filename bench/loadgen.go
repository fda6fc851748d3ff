package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cycleharvest/ckptsched/internal/markov"
)

// lookupPool is the pre-rendered interval-GET stream of one workload:
// every request the load generators send, with the answer the server
// must give. The generators only copy bytes; the expected answers come
// from Schedule.LookupFrom computed directly by the harness.
type lookupPool struct {
	reqs   [][]byte // pipelined GETs, ready to write
	status []int    // expected status: 200, or 404 for a never-installed key
	body   [][]byte // expected 200 body, byte for byte
	keys   []int    // installed-key index, −1 for a cold key
	ages   []float64
}

// lookupSpec says how a pool's keys and ages are drawn.
type lookupSpec struct {
	n        int     // requests in the pool
	zipf     float64 // Zipf skew s over the installed keys; 0 = uniform
	coldFrac float64 // share aimed at never-installed keys
	horizon  float64 // ages are uniform over [0, horizon) …
	beyond   float64 // … except this share, uniform over [horizon, 2·horizon)
}

// newLookupPool draws spec.n requests over the installed schedules from
// rng. oracle[i] is the schedule the server holds for key i, built by
// the harness from the same parameters.
func newLookupPool(rng *rand.Rand, spec lookupSpec, oracle []*markov.Schedule) *lookupPool {
	nk := len(oracle)
	var zipf *rand.Zipf
	if spec.zipf > 1 {
		zipf = rand.NewZipf(rng, spec.zipf, 1, uint64(nk-1))
	}
	p := &lookupPool{
		reqs:   make([][]byte, spec.n),
		status: make([]int, spec.n),
		body:   make([][]byte, spec.n),
		keys:   make([]int, spec.n),
		ages:   make([]float64, spec.n),
	}
	for i := 0; i < spec.n; i++ {
		age := rng.Float64() * spec.horizon
		if rng.Float64() < spec.beyond {
			age += spec.horizon
		}
		// The server parses the rendered text, so the oracle must too.
		ageText := strconv.FormatFloat(age, 'f', 1, 64)
		age, _ = strconv.ParseFloat(ageText, 64)
		p.ages[i] = age

		var key string
		if rng.Float64() < spec.coldFrac {
			p.keys[i] = -1
			p.status[i] = 404
			key = "cold" + strconv.Itoa(rng.Intn(1<<20))
		} else {
			k := rng.Intn(nk)
			if zipf != nil {
				k = int(zipf.Uint64())
			}
			p.keys[i] = k
			p.status[i] = 200
			key = keyName(k)
			T, idx, extended, _ := oracle[k].LookupFrom(age, -1)
			p.body[i] = intervalBody(T, idx, extended)
		}
		p.reqs[i] = []byte("GET /v1/schedule/" + key + "/interval?age=" + ageText + " HTTP/1.1\r\nHost: bench\r\n\r\n")
	}
	return p
}

func keyName(k int) string { return "k" + strconv.Itoa(k) }

// intervalBody renders the interval route's documented response body.
func intervalBody(T float64, idx int, extended bool) []byte {
	b := append([]byte(`{"t":`), strconv.FormatFloat(T, 'g', -1, 64)...)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, `,"extended":`...)
	b = strconv.AppendBool(b, extended)
	return append(b, "}\n"...)
}

// bodyEvery is the sampling stride of the byte-for-byte body check;
// every response has its status checked.
const bodyEvery = 100

// check compares response i of the pool against the expected answer.
func (p *lookupPool) check(i, code int, body []byte) bool {
	if code != p.status[i] {
		return false
	}
	if code == 200 && i%bodyEvery == 0 && !bytes.Equal(body, p.body[i]) {
		return false
	}
	return true
}

// readResponse parses one HTTP/1.1 response off a pipelined stream.
// body aliases the reader's buffer and is valid until the next read.
func readResponse(br *bufio.Reader) (code int, body []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("short status line %q", line)
	}
	code = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	n := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "Content-Length: "
		if len(line) > len(cl) && string(line[:len(cl)]) == cl {
			n, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return 0, nil, fmt.Errorf("content-length in %q", line)
			}
		}
	}
	if n < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	body, err = br.Peek(n)
	if err != nil {
		return 0, nil, err
	}
	_, err = br.Discard(n)
	return code, body, err
}

// loadCounts tallies one generator run. A refused (429), mismatched or
// errored response is a failure.
type loadCounts struct {
	attempted, failed, shed int
}

// record tallies one response: ok is whether it matched the expected
// answer, code its status.
func (c *loadCounts) record(ok bool, code int) {
	c.attempted++
	if !ok {
		c.failed++
		if code == 429 {
			c.shed++
		}
	}
}

func (c *loadCounts) add(o loadCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.shed += o.shed
}

// closedLoop drives conns connections, each keeping depth requests in
// flight (write a batch, read its answers, repeat), for a warm-up and
// then segs segments of segLen. It returns completed requests per
// second for each segment.
func closedLoop(addr string, pool *lookupPool, conns, depth int, warm, segLen time.Duration, segs int) ([]float64, loadCounts, error) {
	type connOut struct {
		done   []int
		counts loadCounts
		err    error
	}
	outs := make([]connOut, conns)
	total := warm + time.Duration(segs)*segLen
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.done = make([]int, segs)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				out.err = err
				return
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 64<<10)
			var batch []byte
			n := len(pool.reqs)
			for idx := c * (n / conns); ; idx += depth {
				batch = batch[:0]
				for j := 0; j < depth; j++ {
					batch = append(batch, pool.reqs[(idx+j)%n]...)
				}
				if _, err := conn.Write(batch); err != nil {
					out.err = err
					return
				}
				for j := 0; j < depth; j++ {
					code, body, err := readResponse(br)
					if err != nil {
						out.err = err
						return
					}
					out.counts.record(pool.check((idx+j)%n, code, body), code)
				}
				t := time.Since(start)
				if t >= total {
					return
				}
				if t >= warm {
					out.done[int((t-warm)/segLen)] += depth
				}
			}
		}(c)
	}
	wg.Wait()
	rps := make([]float64, segs)
	var counts loadCounts
	for _, o := range outs {
		if o.err != nil {
			return nil, counts, fmt.Errorf("closed loop: %w", o.err)
		}
		counts.add(o.counts)
		for s, d := range o.done {
			rps[s] += float64(d) / segLen.Seconds()
		}
	}
	return rps, counts, nil
}

// openLoopSpec configures one open-loop run: request k is due at
// k/rate seconds whatever the server does, and its latency is measured
// from that due time.
type openLoopSpec struct {
	addr  string
	pool  *lookupPool
	conns int
	rate  float64
	// warm is sent and checked but not reported; measure is the reported
	// span. With stop set the run instead lasts until stop closes.
	warm, measure time.Duration
	stop          <-chan struct{}
	// tick > 0 paces by sleeping at least a tick and releasing what is
	// due (cheap, late by up to a tick plus the timer's wake-up). tick
	// == 0 spins on the clock, yielding the processor between looks, so
	// a request leaves within microseconds of its due time: Go timers
	// wake a sleeping generator up to a millisecond late, and that
	// lateness would be charged to the server.
	tick time.Duration
}

// openLoopResult holds per-request figures in due order, warm-up
// excluded.
type openLoopResult struct {
	latencyUs []float64 // response arrival − due time
	lateUs    []float64 // when the generator wrote the request − due time
	counts    loadCounts
	achieved  float64 // responses per second over the measured span
}

// openLoop runs one generator goroutine that deals requests round-robin
// onto spec.conns pipelined connections, and one reader per connection.
func openLoop(spec openLoopSpec) (*openLoopResult, error) {
	gap := time.Duration(float64(time.Second) / spec.rate)
	warmN := int(spec.warm / gap)
	total := warmN + int(spec.measure/gap)
	// A run of known length records into slices sized up front, so no
	// reader stalls on a growing copy in the middle of the measurement.
	perConn, measured := total/spec.conns+1, total-warmN
	if spec.stop != nil {
		total, perConn, measured = 1<<30, 0, 0
	}
	conns := make([]net.Conn, spec.conns)
	for i := range conns {
		c, err := net.Dial("tcp", spec.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}

	// Readers: connection c carries requests c, c+conns, c+2·conns, …
	type connOut struct {
		lat    []float64
		counts loadCounts
		err    error
	}
	outs := make([]connOut, spec.conns)
	var sent atomic.Int64 // requests written so far; final once genDone closes
	genDone := make(chan struct{})
	start := time.Now().Add(10 * time.Millisecond)
	n := len(spec.pool.reqs)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([]float64, 0, perConn)
			br := bufio.NewReaderSize(conns[c], 64<<10)
			for k := c; ; k += spec.conns {
				code, body, err := readResponse(br)
				if err != nil {
					// The generator half-closes when it is done, the server
					// answers what it has and closes: EOF after the last
					// request is the normal end.
					select {
					case <-genDone:
						if errors.Is(err, io.EOF) && int64(k) >= sent.Load() {
							return
						}
					default:
					}
					out.err = err
					return
				}
				lat := time.Since(start.Add(time.Duration(k) * gap))
				out.lat = append(out.lat, float64(lat)/1e3)
				out.counts.record(spec.pool.check(k%n, code, body), code)
			}
		}(c)
	}

	// Generator.
	bws := make([]*bufio.Writer, spec.conns)
	for i, c := range conns {
		bws[i] = bufio.NewWriterSize(c, 64<<10)
	}
	flush := func() error {
		for _, bw := range bws {
			if bw.Buffered() > 0 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	late := make([]float64, 0, measured)
	var genErr error
	k := 0
gen:
	for ; k < total; k++ {
		due := start.Add(time.Duration(k) * gap)
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			// Everything due is buffered: ship it, then wait.
			if genErr = flush(); genErr != nil {
				break gen
			}
			if spec.stop != nil {
				select {
				case <-spec.stop:
					break gen
				default:
				}
			}
			if spec.tick > 0 {
				time.Sleep(max(wait, spec.tick))
			} else {
				yieldCPU()
			}
		}
		if k >= warmN {
			late = append(late, float64(time.Since(due))/1e3)
		}
		if _, genErr = bws[k%spec.conns].Write(spec.pool.reqs[k%n]); genErr != nil {
			break
		}
		sent.Store(int64(k + 1))
	}
	if genErr == nil {
		genErr = flush()
	}
	close(genDone)
	for _, c := range conns {
		c.(*net.TCPConn).CloseWrite()
	}
	wg.Wait()
	if genErr != nil {
		return nil, fmt.Errorf("open loop generator: %w", genErr)
	}

	res := &openLoopResult{lateUs: late, latencyUs: make([]float64, 0, measured)}
	maxLen := 0
	for _, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("open loop reader: %w", o.err)
		}
		res.counts.add(o.counts)
		if len(o.lat) > maxLen {
			maxLen = len(o.lat)
		}
	}
	// Interleave back into due order and drop the warm-up.
	for i := 0; i < maxLen; i++ {
		for c := range outs {
			if i < len(outs[c].lat) && i*spec.conns+c >= warmN {
				res.latencyUs = append(res.latencyUs, outs[c].lat[i])
			}
		}
	}
	span := time.Duration(k-warmN) * gap
	if span > 0 {
		res.achieved = float64(len(res.latencyUs)) / span.Seconds()
	}
	return res, nil
}
