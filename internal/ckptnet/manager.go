package ckptnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// Assigner decides which availability model a connecting test process
// should use — the manager-side policy. The paper's manager rotates
// among the four families and parameterizes each from the 18-month
// trace archive of the host the process landed on.
type Assigner interface {
	Assign(h Hello) (Assign, error)
}

// AssignerFunc adapts a function to the Assigner interface.
type AssignerFunc func(h Hello) (Assign, error)

// Assign implements Assigner.
func (f AssignerFunc) Assign(h Hello) (Assign, error) { return f(h) }

// StaticAssigner always assigns the same model and parameters.
func StaticAssigner(m fit.Model, params []float64, bytes int64) Assigner {
	return AssignerFunc(func(Hello) (Assign, error) {
		return Assign{Model: m, Params: params, CheckpointBytes: bytes, HeartbeatSec: 10}, nil
	})
}

// Options tunes the manager's failure handling. The zero value gets
// production defaults; chaos tests shrink the timeouts.
type Options struct {
	// HelloTimeout bounds the wait for a new connection's first frame
	// (default 30 s) — a dial that never speaks doesn't pin a session
	// goroutine.
	HelloTimeout time.Duration
	// IdleTimeout is the per-frame read deadline for clients that did
	// not announce a time scale in Hello (default 5 min).
	IdleTimeout time.Duration
	// HeartbeatGrace scales the derived per-frame deadline: the
	// deadline is Grace heartbeat periods of wall time, so a healthy
	// process can drop Grace−1 consecutive heartbeats before the
	// manager declares the session dead (default 4).
	HeartbeatGrace float64
	// MinFrameTimeout floors the derived deadline so aggressive time
	// compression doesn't make loopback scheduling jitter look like a
	// failure (default 2 s).
	MinFrameTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection — the hook
	// the FaultInjector uses.
	WrapConn func(net.Conn) net.Conn
	// Metrics, when set, receives the manager's counters, the active-
	// session gauge, and the heartbeat-gap histogram (names in DESIGN.md
	// §11). Nil leaves instrumentation off at zero cost.
	Metrics *obs.Registry
	// Tracer, when set, records per-session timelines: one "session"
	// span per connection, child spans per transfer, and instant events
	// for heartbeats, retries, torn frames, and T_opt reports — each
	// carrying the SessionLog sequence id as its "seq" attr (DESIGN.md
	// §12). Nil leaves tracing off at zero cost.
	Tracer *obs.Tracer
}

// managerWriteTimeout is the manager's per-Write deadline for frames
// and data chunks.
const managerWriteTimeout = 30 * time.Second

func (o *Options) setDefaults() {
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 30 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.HeartbeatGrace <= 0 {
		o.HeartbeatGrace = 4
	}
	if o.MinFrameTimeout <= 0 {
		o.MinFrameTimeout = 2 * time.Second
	}
}

// ImageRecord is the manager's durable metadata for a job's last good
// checkpoint image. Commit is atomic: a torn or corrupt transfer never
// replaces the previous record.
type ImageRecord struct {
	// Generation counts committed checkpoints for the job.
	Generation int
	// Bytes is the image size.
	Bytes int64
	// CRC32 is the verified checksum of the stored image.
	CRC32 uint32
}

// Manager is the checkpoint manager: a TCP server that serves recovery
// images, receives checkpoints, and logs every session event.
type Manager struct {
	assigner Assigner
	opts     Options
	metrics  managerMetrics

	// store holds the committed content of jobs that checkpoint in a
	// content mode (full or delta), and is where deltas are applied.
	store *imagestore.Store

	mu       sync.Mutex
	listener net.Listener
	sessions []*SessionLog
	byJob    map[string]*SessionLog
	images   map[string]image // written by commit alone
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewManager creates a manager with the given assignment policy and
// default Options.
func NewManager(a Assigner) (*Manager, error) {
	return NewManagerOpts(a, Options{})
}

// NewManagerOpts creates a manager with explicit failure-handling
// options.
func NewManagerOpts(a Assigner, opts Options) (*Manager, error) {
	if a == nil {
		return nil, errors.New("ckptnet: nil assigner")
	}
	opts.setDefaults()
	return &Manager{
		assigner: a,
		opts:     opts,
		metrics:  newManagerMetrics(opts.Metrics),
		store:    imagestore.NewStore(),
		byJob:    make(map[string]*SessionLog),
		images:   make(map[string]image),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// Store exposes the manager's content-addressed image store (tests and
// tooling inspect committed images through it).
func (m *Manager) Store() *imagestore.Store { return m.store }

// Listen starts accepting test-process connections on addr (e.g.
// "127.0.0.1:0") and returns the bound address.
func (m *Manager) Listen(addr string) (net.Addr, error) {
	return m.ListenContext(context.Background(), addr)
}

// ListenContext is Listen with cancellation: when ctx ends the manager
// shuts down as if Close had been called — the listener stops and
// in-flight sessions are torn down, so a stuck campaign can always be
// canceled from the caller.
func (m *Manager) ListenContext(ctx context.Context, addr string) (net.Addr, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("ckptnet: manager closed")
	}
	if m.listener != nil {
		m.mu.Unlock()
		return nil, errors.New("ckptnet: manager already listening")
	}
	m.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		// Lost the race with Close: don't leak the listener.
		m.mu.Unlock()
		ln.Close()
		return nil, errors.New("ckptnet: manager closed")
	}
	m.listener = ln
	// Register with the WaitGroup inside the same critical section that
	// publishes the listener: Close either observes the listener (and
	// this Add happened before its Wait) or marks the manager closed
	// before we get here — never an unsynchronized Add/Wait pair.
	m.wg.Add(1)
	m.mu.Unlock()

	if ctx.Done() != nil {
		context.AfterFunc(ctx, func() { _ = m.Close() })
	}
	go m.acceptLoop(ln)
	return ln.Addr(), nil
}

func (m *Manager) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if m.opts.WrapConn != nil {
			conn = m.opts.WrapConn(conn)
		}
		if !m.track(conn) {
			conn.Close()
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.untrack(conn)
			defer conn.Close()
			m.serve(conn)
		}()
	}
}

// track registers a live connection so Close can tear it down; it
// refuses once the manager is closed.
func (m *Manager) track(conn net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.conns[conn] = struct{}{}
	return true
}

func (m *Manager) untrack(conn net.Conn) {
	m.mu.Lock()
	delete(m.conns, conn)
	m.mu.Unlock()
}

// Close stops the listener, tears down in-flight sessions, and waits
// for them to drain. It is idempotent and safe to race with Listen.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	var err error
	if m.listener != nil {
		err = m.listener.Close()
	}
	for c := range m.conns {
		c.Close()
	}
	m.mu.Unlock()
	m.wg.Wait()
	return err
}

// Sessions returns the logs of all sessions seen so far (live and
// finished).
func (m *Manager) Sessions() []*SessionLog {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*SessionLog, len(m.sessions))
	copy(out, m.sessions)
	return out
}

// image is a job's last good checkpoint as commit recorded it: the
// exported metadata plus, for a content-mode job, the committed chunks
// (the store's own, which are never modified after their commit). The
// next recovery announces and streams exactly this.
type image struct {
	ImageRecord
	content bool     // false for a legacy zero image
	chunks  [][]byte // the content image, chunk by chunk
}

// Image returns the last good checkpoint image record for a job, if
// one has ever been committed.
func (m *Manager) Image(jobID string) (ImageRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	img, ok := m.images[jobID]
	return img.ImageRecord, ok
}

// errMode reports a DataBegin announcing a transfer mode this manager
// does not know.
var errMode = errors.New("ckptnet: unknown transfer mode")

// commit makes a received checkpoint the job's last good image, in any
// mode, and is the only writer of the image record. It is called once
// the whole stream has arrived and b.CRC32 holds its verified checksum.
// A legacy image is its size and checksum; a content image is decoded
// (inflated when b announces an encoding) and committed to the store
// whole or applied as a delta, and the record and chunk list are then
// read back from the store, the source of its generation. Any error
// leaves the last good image untouched and maps to a Nack in serve.
func (m *Manager) commit(jobID string, b DataBegin, payload []byte) (ImageRecord, error) {
	img := image{ImageRecord: ImageRecord{Bytes: b.Bytes, CRC32: b.CRC32}}
	switch b.Mode {
	case ModeLegacy:
	case ModeFull, ModeDelta:
		data := payload
		switch b.Encoding {
		case "":
			if b.RawBytes != 0 && b.RawBytes != int64(len(payload)) {
				return ImageRecord{}, fmt.Errorf("ckptnet: raw_bytes %d but %d payload bytes arrived", b.RawBytes, len(payload))
			}
		case "flate":
			if b.RawBytes < 0 || b.RawBytes > MaxImageBytes {
				return ImageRecord{}, fmt.Errorf("ckptnet: inflated size %d out of range", b.RawBytes)
			}
			var err error
			if data, err = imagestore.Decompress(payload, b.RawBytes); err != nil {
				return ImageRecord{}, err
			}
		default:
			return ImageRecord{}, fmt.Errorf("ckptnet: unknown encoding %q", b.Encoding)
		}
		if b.ChunkSize <= 0 {
			b.ChunkSize = imagestore.DefaultChunkSize
		}
		if b.Mode == ModeFull {
			m.store.CommitFull(jobID, data, b.ChunkSize)
		} else if _, _, err := m.store.ApplyDelta(jobID, imagestore.Delta{
			BaseGen: b.BaseGen, ChunkSize: b.ChunkSize, Size: b.ImageBytes, Dirty: b.Dirty, Sums: b.Sums,
		}, data); err != nil {
			return ImageRecord{}, err
		}
		var man imagestore.Manifest
		img.chunks, man, img.Generation, img.CRC32, _ = m.store.Chunks(jobID)
		img.Bytes, img.content = man.Size, true
	default:
		return ImageRecord{}, fmt.Errorf("%w %q", errMode, b.Mode)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Mode == ModeLegacy {
		img.Generation = m.images[jobID].Generation + 1
	}
	m.images[jobID] = img
	return img.ImageRecord, nil
}

// sessionFor finds or creates the SessionLog for a hello: a resuming
// process reattaches to its existing log so retries, fallbacks, and
// torn frames accumulate on one per-job record.
func (m *Manager) sessionFor(h Hello, a Assign) (log *SessionLog, resumed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h.Resume {
		if l, ok := m.byJob[h.JobID]; ok {
			return l, true
		}
	}
	l := &SessionLog{
		JobID:           h.JobID,
		Model:           a.Model,
		Params:          a.Params,
		CheckpointBytes: a.CheckpointBytes,
		traceID:         uint64(len(m.sessions)) + 1,
	}
	m.sessions = append(m.sessions, l)
	m.byJob[h.JobID] = l
	m.metrics.sessions.Inc()
	return l, false
}

// serve runs the manager side of one session. An I/O error is
// interpreted as the process being evicted (the paper's
// terminate-on-eviction semantics make a dropped connection the normal
// end of a session); the process may later reconnect with
// Hello.Resume and continue against its last good image.
func (m *Manager) serve(conn net.Conn) {
	rw := &deadlineRW{
		conn:         conn,
		ReadTimeout:  m.opts.HelloTimeout,
		WriteTimeout: managerWriteTimeout,
	}
	var hello Hello
	t, err := ReadFrame(rw, &hello)
	if err != nil || t != MsgHello {
		return
	}
	assign, err := m.assigner.Assign(hello)
	if err != nil {
		return
	}
	if assign.HeartbeatSec <= 0 {
		assign.HeartbeatSec = 10
	}
	// Per-frame deadline from the announced heartbeat cadence: a live
	// process produces a frame at least every heartbeat period.
	rw.ReadTimeout = frameTimeout(assign.HeartbeatSec, hello.TimeScale,
		m.opts.HeartbeatGrace, m.opts.MinFrameTimeout, m.opts.IdleTimeout)

	log, resumed := m.sessionFor(hello, assign)
	m.metrics.active.Add(1)
	defer m.metrics.active.Add(-1)

	// Trace lane for this connection: pid is the session's creation
	// order (stable across resumes), tid the 1-based attempt, so a
	// retried session renders as stacked attempt rows under one pid.
	tr := m.opts.Tracer
	pid, tid := log.traceID, uint64(hello.Attempt)+1
	sess := tr.StartSpan(pid, tid, "session").SetAttr(
		obs.AttrStr("job", hello.JobID),
		obs.AttrStr("model", assign.Model.String()),
		obs.AttrBool("resumed", resumed))
	defer sess.End()

	if resumed {
		seq := m.record(log, EvRetry, float64(hello.Attempt))
		tr.Event(pid, tid, "retry",
			obs.AttrInt("seq", seq), obs.AttrInt("attempt", int64(hello.Attempt)))
	} else {
		sess.SetAttr(obs.AttrInt("seq", m.record(log, EvConnected, hello.TElapsed)))
	}
	defer m.record(log, EvDisconnected, 0)

	if err := WriteFrame(rw, MsgAssign, assign); err != nil {
		return
	}

	// Recovery: stream the last good image (or a fresh image of the
	// assigned size for a first-time job). A write error means the
	// process was evicted mid-recovery; TCP cannot tell us precisely
	// how many bytes arrived, so the manager records the attempt with
	// an unknown (zero) byte count and relies on its own timing
	// elsewhere.
	recBegin := DataBegin{Bytes: assign.CheckpointBytes, CRC32: ZeroCRC(assign.CheckpointBytes)}
	m.mu.Lock()
	img, ok := m.images[hello.JobID]
	m.mu.Unlock()
	if ok {
		recBegin.Bytes, recBegin.CRC32 = img.Bytes, img.CRC32
	}
	if img.content {
		// Content job: stream the committed image itself and announce
		// its generation so the client re-adopts it as a delta base.
		recBegin.Mode, recBegin.Gen = ModeFull, img.Generation
	}
	if err := WriteFrame(rw, MsgRecoveryBegin, recBegin); err != nil {
		return
	}
	rsp := tr.StartSpan(pid, tid, "transfer.recovery").SetAttr(
		obs.AttrInt("bytes", recBegin.Bytes),
		obs.AttrStr("mode", recBegin.Mode))
	if err := send(rw, recBegin, img.chunks...); err != nil {
		seq := m.record(log, EvRecoveryInterrupted, 0)
		rsp.SetAttr(obs.AttrStr("outcome", "interrupted"), obs.AttrInt("seq", seq)).End()
		return
	}
	rsp.SetAttr(obs.AttrStr("outcome", "done"),
		obs.AttrInt("seq", m.record(log, EvRecoveryDone, loggedBytes(recBegin)))).End()

	// Event loop: heartbeats, T_opt reports, checkpoints — until the
	// connection drops (eviction) or the stream turns to garbage.
	// hbExpect is the expected wall-clock heartbeat cadence; a gap
	// beyond 1.5× of it earns a "heartbeat.gap" trace event.
	hbExpect := assign.HeartbeatSec
	if hello.TimeScale > 0 {
		hbExpect *= hello.TimeScale
	}
	var lastHB time.Time
	for {
		// A process frame is a ToptReport, a Heartbeat or a DataBegin.
		// Their JSON field names are disjoint (TestProcessFramesDisjoint),
		// so one decode fills whichever the frame type then names.
		var msg struct {
			ToptReport
			Heartbeat
			DataBegin
		}
		t, err := ReadFrame(rw, &msg)
		if err != nil {
			if errors.Is(err, ErrMalformedFrame) {
				tr.Event(pid, tid, "torn_frame",
					obs.AttrInt("seq", m.record(log, EvTornFrame, 0)),
					obs.AttrStr("cause", "malformed"))
			}
			return
		}
		switch t {
		case MsgTopt:
			seq := m.record(log, EvTopt, msg.Topt)
			tr.Event(pid, tid, "topt",
				obs.AttrInt("seq", seq),
				obs.AttrFloat("t_opt", msg.Topt),
				obs.AttrBool("fallback", msg.Fallback))
			if msg.Fallback {
				tr.Event(pid, tid, "fallback",
					obs.AttrInt("seq", m.record(log, EvFallback, msg.Topt)),
					obs.AttrFloat("t_opt", msg.Topt))
			}
		case MsgHeartbeat:
			var gap float64
			if m.metrics.hbGap != nil || tr != nil {
				now := time.Now()
				if !lastHB.IsZero() {
					gap = now.Sub(lastHB).Seconds()
					m.metrics.hbGap.Observe(gap)
				}
				lastHB = now
			}
			seq := m.record(log, EvHeartbeat, msg.Elapsed)
			tr.Event(pid, tid, "heartbeat",
				obs.AttrInt("seq", seq),
				obs.AttrFloat("gap_s", gap),
				obs.AttrFloat("elapsed", msg.Elapsed))
			if hbExpect > 0 && gap > 1.5*hbExpect {
				tr.Event(pid, tid, "heartbeat.gap",
					obs.AttrInt("seq", seq),
					obs.AttrFloat("gap_s", gap),
					obs.AttrFloat("expected_s", hbExpect))
			}
		case MsgCheckpointBegin:
			begin := msg.DataBegin
			csp := tr.StartSpan(pid, tid, "transfer.checkpoint").SetAttr(
				obs.AttrInt("bytes", begin.Bytes),
				obs.AttrStr("mode", begin.Mode))
			payload, got, crc, err := receive(rw, begin)
			if err != nil && !errors.Is(err, errCRC) {
				if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
					csp.SetAttr(obs.AttrStr("outcome", "interrupted"),
						obs.AttrInt("seq", m.record(log, EvCheckpointInterrupted, float64(got))),
						obs.AttrInt("got", got)).End()
				} else {
					csp.SetAttr(obs.AttrStr("outcome", "error")).End()
				}
				return
			}
			var rec ImageRecord
			if err == nil {
				begin.CRC32 = crc // verified if announced, measured if not
				rec, err = m.commit(hello.JobID, begin, payload)
			}
			if err != nil {
				// The stream arrived whole but is refused — corrupt in
				// flight, a patch that does not apply (stale base, bad
				// geometry or encoding, failed chunk verification), or an
				// unknown mode. The last good image stands, and because
				// exactly the announced bytes were consumed the connection
				// is still frame-aligned: Nack, and the process retries on
				// it (a refused delta as a full image).
				cause, outcome := "delta", "delta_rejected"
				switch {
				case errors.Is(err, errCRC):
					cause, outcome = "crc", "crc_rejected"
				case errors.Is(err, errMode):
					cause, outcome = "mode", "bad_mode"
				}
				seq := m.record(log, EvTornFrame, float64(got))
				csp.SetAttr(obs.AttrStr("outcome", outcome), obs.AttrInt("seq", seq)).End()
				tr.Event(pid, tid, "torn_frame",
					obs.AttrInt("seq", seq), obs.AttrStr("cause", cause),
					obs.AttrStr("error", err.Error()))
				if err := WriteFrame(rw, MsgCheckpointNack, struct{}{}); err != nil {
					return
				}
				continue
			}
			kind := EvCheckpointDone
			if begin.Mode == ModeDelta {
				kind = EvDeltaCheckpointDone
			}
			csp.SetAttr(obs.AttrStr("outcome", "committed"),
				obs.AttrInt("gen", int64(rec.Generation)),
				obs.AttrInt("image_bytes", rec.Bytes),
				obs.AttrInt("seq", m.record(log, kind, loggedBytes(begin)))).End()
			if err := WriteFrame(rw, MsgCheckpointAck, CheckpointAck{Gen: rec.Generation}); err != nil {
				return
			}
		default:
			// Unknown frame type: the stream lost alignment (a dropped
			// control frame left raw data where a header should be).
			tr.Event(pid, tid, "torn_frame",
				obs.AttrInt("seq", m.record(log, EvTornFrame, 0)),
				obs.AttrStr("cause", "unknown-frame"))
			return
		}
	}
}

// loggedBytes is the SessionLog value of a completed transfer: the wire
// bytes of a content stream, and 0 for a legacy one, which Summary.add
// bills at the assigned image size.
func loggedBytes(b DataBegin) float64 {
	if b.Mode == ModeLegacy {
		return 0
	}
	return float64(b.Bytes)
}

// String describes the manager for logs.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	addr := "unbound"
	if m.listener != nil {
		addr = m.listener.Addr().String()
	}
	return fmt.Sprintf("ckptnet.Manager(%s, %d sessions)", addr, len(m.sessions))
}
