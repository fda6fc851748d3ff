package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The fast path is a second, optional listener that speaks just enough
// HTTP/1.1 to serve the interval route — the one that runs at fleet
// rate. net/http costs ~10 µs of single-core CPU per request here
// (request parse, header map, per-response flush); under a profiler at
// saturation that is one write(2) per response plus a third of the CPU
// in parsing, which caps a 1-core box near 100k req/s. The fast path
// removes exactly those costs and nothing else:
//
//   - requests are parsed in place from the connection's read buffer
//     (the route shape is fixed, so parsing is substring arithmetic);
//   - responses are appended to a write buffer that flushes only when
//     the read buffer has no more pipelined requests — one syscall per
//     batch instead of per response;
//   - admission control, the schedule store, metrics, and response
//     bytes are shared with the net/http handler — both call
//     lookupInterval — so both planes give byte-identical JSON and the
//     same 429/404/422 semantics.
//
// Anything that is not a well-formed interval GET gets a 400/404 and,
// for safety, the connection is closed — the control plane (fits,
// schedule builds, metrics scrapes) belongs on the main port.

// FastRunning is a live fast-path listener; Shutdown drains it.
type FastRunning struct {
	s        *Server
	ln       net.Listener
	done     chan struct{}
	draining atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// StartFast binds addr with the interval-only fast path. It serves the
// same GET /v1/schedule/{key}/interval?age= wire format as the main
// server, at several times the request rate.
func (s *Server) StartFast(addr string) (*FastRunning, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fr := &FastRunning{
		s:     s,
		ln:    ln,
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	go fr.acceptLoop()
	return fr, nil
}

// Addr is the bound listen address.
func (fr *FastRunning) Addr() net.Addr { return fr.ln.Addr() }

func (fr *FastRunning) acceptLoop() {
	defer close(fr.done)
	for {
		c, err := fr.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		fr.mu.Lock()
		if fr.draining.Load() {
			fr.mu.Unlock()
			c.Close()
			return
		}
		fr.conns[c] = struct{}{}
		fr.wg.Add(1)
		fr.mu.Unlock()
		go fr.serveConn(c)
	}
}

// Shutdown drains the fast path: the listener closes immediately, each
// connection finishes the batch it is serving and exits at the next
// request boundary, and connections still open when ctx expires are
// closed hard.
func (fr *FastRunning) Shutdown(ctx context.Context) error {
	fr.draining.Store(true)
	fr.ln.Close()
	<-fr.done

	drained := make(chan struct{})
	go func() {
		fr.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		fr.mu.Lock()
		for c := range fr.conns {
			c.Close()
		}
		fr.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}

const (
	fastReadBuf  = 32 << 10
	fastWriteBuf = 32 << 10
	// fastIdle bounds how long an idle keep-alive connection may sit
	// between batches; fastDrainPoll is how often an idle connection
	// re-checks the draining flag, so graceful shutdown completes in
	// one poll interval instead of waiting out the idle budget.
	fastIdle      = 2 * time.Minute
	fastDrainPoll = 250 * time.Millisecond
)

// Canned response fragments. The fast path skips the optional Date
// header on purpose: formatting it is measurable at rate and no
// consumer of a scheduling lookup wants the wall clock.
var (
	fastOKPrefix  = []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: ")
	fast400       = fastCanned("400 Bad Request", `{"error":"age: must be a finite number ≥ 0"}`+"\n", true)
	fast429Prefix = []byte("HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: ")
)

// fast404 and fast422 keep the connection open: a lookup for a machine
// nobody scheduled, or one whose build failed, is a normal fleet event,
// and closing would take the rest of the pipelined stream down with it.
var (
	fast404 = fastCanned("404 Not Found", `{"error":"no such schedule"}`+"\n", false)
	fast422 = fastCanned("422 Unprocessable Entity", `{"error":"schedule build failed"}`+"\n", false)
)

// fast429Body carries its own Content-Length; the 429 keeps the
// connection open (shedding is transient, closing would make every
// retry pay a reconnect).
var fast429Body = func() []byte {
	body := `{"error":"overloaded; retry after the indicated delay"}` + "\n"
	return []byte(fmt.Sprintf("\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}()

// fastCanned renders a canned error response; Content-Length is the
// byte length (the 400 body holds a multi-byte ≥). With closeConn the
// response announces that the connection closes after it.
func fastCanned(status, body string, closeConn bool) []byte {
	connection := ""
	if closeConn {
		connection = "Connection: close\r\n"
	}
	return []byte(fmt.Sprintf(
		"HTTP/1.1 %s\r\nContent-Type: application/json\r\n%sContent-Length: %d\r\n\r\n%s",
		status, connection, len(body), body))
}

func (fr *FastRunning) serveConn(c net.Conn) {
	defer func() {
		fr.mu.Lock()
		delete(fr.conns, c)
		fr.mu.Unlock()
		c.Close()
		fr.wg.Done()
	}()
	s := fr.s
	br := bufio.NewReaderSize(c, fastReadBuf)
	bw := bufio.NewWriterSize(c, fastWriteBuf)
	var scratch [96]byte
	var lenScratch [8]byte
	// keyBuf holds a copy of the request's key: the parsed slice
	// aliases the read buffer, which skipHeaders' next ReadSlice may
	// compact — the bytes must be captured before headers are consumed.
	var keyBuf [256]byte
	for {
		if br.Buffered() == 0 {
			// Batch boundary: everything parsed so far goes out in one
			// write, then block for the next batch.
			if bw.Buffered() > 0 {
				if bw.Flush() != nil {
					return
				}
			}
			if !fr.waitForBatch(c, br) {
				return
			}
		}
		start := time.Now()
		line, err := br.ReadSlice('\n')
		if err != nil {
			// A request line longer than the read buffer lands here too
			// (ErrBufferFull): nothing legitimate is that long.
			return
		}
		s.m.requests.Inc()
		key, age, ok := parseFastRequest(line)
		if ok && len(key) <= len(keyBuf) {
			key = keyBuf[:copy(keyBuf[:], key)]
		} else {
			ok = false
		}
		if !ok || !skipHeaders(br) {
			bw.Write(fast400)
			bw.Flush()
			s.m.errors.Inc()
			s.sloInterval.Observe(time.Since(start).Seconds(), false)
			return
		}
		if !s.limInterval.acquire() {
			s.m.shed.Inc()
			bw.Write(fast429Prefix)
			bw.WriteString(s.retryAfterSec)
			bw.Write(fast429Body)
			s.sloInterval.Observe(time.Since(start).Seconds(), false)
			continue
		}
		status, body, _ := lookupInterval(s, key, age, scratch[:0])
		s.limInterval.release()
		if status != http.StatusOK {
			if status == http.StatusNotFound {
				bw.Write(fast404)
			} else {
				bw.Write(fast422)
			}
			s.m.errors.Inc()
			s.sloInterval.Observe(time.Since(start).Seconds(), false)
			continue
		}
		bw.Write(fastOKPrefix)
		bw.Write(strconv.AppendInt(lenScratch[:0], int64(len(body)), 10))
		bw.WriteString("\r\n\r\n")
		bw.Write(body)
		elapsed := time.Since(start).Seconds()
		s.m.intervalLat.Observe(elapsed)
		s.sloInterval.Observe(elapsed, true)
	}
}

// waitForBatch blocks until the connection has bytes to serve,
// re-checking the draining flag every fastDrainPoll so shutdown does
// not wait out an idle connection. Reports false when the connection
// should close (drain, idle budget exhausted, peer gone).
func (fr *FastRunning) waitForBatch(c net.Conn, br *bufio.Reader) bool {
	idleStart := time.Now()
	for {
		if fr.draining.Load() {
			return false
		}
		c.SetReadDeadline(time.Now().Add(fastDrainPoll))
		_, err := br.Peek(1)
		if err == nil {
			c.SetReadDeadline(time.Time{})
			return true
		}
		if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
			return false
		}
		if time.Since(idleStart) > fastIdle {
			return false
		}
	}
}

// appendIntervalBody renders the interval JSON exactly as the net/http
// handler does — the two planes must stay byte-identical.
func appendIntervalBody(b []byte, T float64, idx int, extended bool) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, T, 'g', -1, 64)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	if extended {
		b = append(b, `,"extended":true}`...)
	} else {
		b = append(b, `,"extended":false}`...)
	}
	return append(b, '\n')
}

// parseFastRequest destructures "GET /v1/schedule/<key>/interval[?query] HTTP/1.x\r\n"
// in place. It accepts what net/http would hand to the interval handler
// and reads the same key and age out of it (intervalKey, ageFromQuery),
// with one exception it refuses instead of answering differently: a
// percent-escape in the path, which net/http would decode. The returned
// key aliases the read buffer and is only valid until the next
// ReadSlice — the caller copies it out before consuming headers;
// storeGet then looks it up without a heap allocation.
func parseFastRequest(line []byte) (key []byte, age float64, ok bool) {
	const method, version = "GET ", " HTTP/1." // then one digit and the line end
	n := len(line) - 1                         // the '\n' ReadSlice stopped at
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	v := n - len(version) - 1
	if v < len(method) || string(line[:len(method)]) != method ||
		string(line[v:n-1]) != version || line[n-1] < '0' || line[n-1] > '9' {
		return nil, 0, false
	}
	path, query, _ := bytes.Cut(line[len(method):v], []byte("?"))
	if key, ok = intervalKey(path); !ok {
		return nil, 0, false
	}
	// net/http splits the request line at its spaces and refuses control
	// bytes anywhere in the target. The route's fixed text has matched,
	// so only the key and the query can hold any.
	for _, b := range key {
		if b <= ' ' || b == 0x7f || b == '%' {
			return nil, 0, false
		}
	}
	for _, b := range query {
		if b <= ' ' || b == 0x7f {
			return nil, 0, false
		}
	}
	age, ok = ageFromQuery(query)
	return key, age, ok
}

// skipHeaders consumes header lines through the blank terminator (a
// pipelined GET carries no body).
func skipHeaders(br *bufio.Reader) bool {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return false
		}
		if len(line) <= 2 {
			return true
		}
	}
}
