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
	// content mode (full or delta); legacy zero-stream jobs only touch
	// the images metadata map.
	store *imagestore.Store

	mu       sync.Mutex
	listener net.Listener
	sessions []*SessionLog
	byJob    map[string]*SessionLog
	images   map[string]ImageRecord
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
		images:   make(map[string]ImageRecord),
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

// Image returns the last good checkpoint image record for a job, if
// one has ever been committed.
func (m *Manager) Image(jobID string) (ImageRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.images[jobID]
	return rec, ok
}

// commitImage atomically replaces a job's last good image record; it
// is called only after the full stream arrived and its CRC verified.
func (m *Manager) commitImage(jobID string, bytes int64, crc uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.images[jobID]
	rec.Generation++
	rec.Bytes = bytes
	rec.CRC32 = crc
	m.images[jobID] = rec
}

// setImage records a content-mode commit's metadata, keeping the
// ImageRecord generation in lockstep with the store's (the store is
// the source of truth for content jobs).
func (m *Manager) setImage(jobID string, rec ImageRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.images[jobID] = rec
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
	var recData []byte
	if data, _, gen, crc, ok := m.store.Lookup(hello.JobID); ok && gen > 0 {
		// Content job: stream the committed image itself and announce
		// its generation so the client re-adopts it as a delta base.
		recData = data
		recBegin = DataBegin{Bytes: int64(len(data)), CRC32: crc, Mode: ModeFull, Gen: gen}
	} else if rec, ok := m.Image(hello.JobID); ok {
		recBegin.Bytes, recBegin.CRC32 = rec.Bytes, rec.CRC32
	}
	if err := WriteFrame(rw, MsgRecoveryBegin, recBegin); err != nil {
		return
	}
	rsp := tr.StartSpan(pid, tid, "transfer.recovery").SetAttr(
		obs.AttrInt("bytes", recBegin.Bytes),
		obs.AttrStr("mode", recBegin.Mode))
	if recData != nil {
		err = WriteRawData(rw, recData)
	} else {
		err = WriteData(rw, recBegin.Bytes)
	}
	if err != nil {
		seq := m.record(log, EvRecoveryInterrupted, 0)
		rsp.SetAttr(obs.AttrStr("outcome", "interrupted"), obs.AttrInt("seq", seq)).End()
		return
	}
	recWire := 0.0
	if recData != nil {
		recWire = float64(recBegin.Bytes)
	}
	rsp.SetAttr(obs.AttrStr("outcome", "done"),
		obs.AttrInt("seq", m.record(log, EvRecoveryDone, recWire))).End()

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
		var raw struct {
			Topt      float64 `json:"topt"`
			MeasuredC float64 `json:"measured_c"`
			Age       float64 `json:"age"`
			Elapsed   float64 `json:"elapsed"`
			Bytes     int64   `json:"bytes"`
			CRC32     uint32  `json:"crc32"`
			Fallback  bool    `json:"fallback"`
			// Delta-checkpoint extension (DataBegin's optional fields).
			Mode       string                `json:"mode"`
			Encoding   string                `json:"encoding"`
			RawBytes   int64                 `json:"raw_bytes"`
			ChunkSize  int                   `json:"chunk_size"`
			ImageBytes int64                 `json:"image_bytes"`
			BaseGen    int                   `json:"base_gen"`
			Dirty      []int                 `json:"dirty"`
			Sums       []imagestore.ChunkSum `json:"sums"`
		}
		t, err := ReadFrame(rw, &raw)
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
			seq := m.record(log, EvTopt, raw.Topt)
			tr.Event(pid, tid, "topt",
				obs.AttrInt("seq", seq),
				obs.AttrFloat("t_opt", raw.Topt),
				obs.AttrBool("fallback", raw.Fallback))
			if raw.Fallback {
				tr.Event(pid, tid, "fallback",
					obs.AttrInt("seq", m.record(log, EvFallback, raw.Topt)),
					obs.AttrFloat("t_opt", raw.Topt))
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
			seq := m.record(log, EvHeartbeat, raw.Elapsed)
			tr.Event(pid, tid, "heartbeat",
				obs.AttrInt("seq", seq),
				obs.AttrFloat("gap_s", gap),
				obs.AttrFloat("elapsed", raw.Elapsed))
			if hbExpect > 0 && gap > 1.5*hbExpect {
				tr.Event(pid, tid, "heartbeat.gap",
					obs.AttrInt("seq", seq),
					obs.AttrFloat("gap_s", gap),
					obs.AttrFloat("expected_s", hbExpect))
			}
		case MsgCheckpointBegin:
			csp := tr.StartSpan(pid, tid, "transfer.checkpoint").SetAttr(
				obs.AttrInt("bytes", raw.Bytes),
				obs.AttrStr("mode", raw.Mode))
			// Content modes must buffer the stream to verify and commit
			// it; the legacy zero stream is discarded as it arrives.
			var (
				payload []byte
				got     int64
				crc     uint32
			)
			if raw.Mode == ModeLegacy {
				got, crc, err = ReadDataCRC(rw, raw.Bytes)
			} else {
				payload, got, crc, err = ReadDataBuf(rw, raw.Bytes)
			}
			if err != nil {
				if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
					csp.SetAttr(obs.AttrStr("outcome", "interrupted"),
						obs.AttrInt("seq", m.record(log, EvCheckpointInterrupted, float64(got))),
						obs.AttrInt("got", got)).End()
				} else {
					csp.SetAttr(obs.AttrStr("outcome", "error")).End()
				}
				return
			}
			if raw.CRC32 != 0 && crc != raw.CRC32 {
				// Corrupt image: reject it, keep the last good one, and
				// tell the process so it can retry over this connection
				// (the stream is still frame-aligned — we consumed
				// exactly the announced byte count).
				seq := m.record(log, EvTornFrame, float64(got))
				csp.SetAttr(obs.AttrStr("outcome", "crc_rejected"),
					obs.AttrInt("seq", seq)).End()
				tr.Event(pid, tid, "torn_frame",
					obs.AttrInt("seq", seq), obs.AttrStr("cause", "crc"))
				if err := WriteFrame(rw, MsgCheckpointNack, struct{}{}); err != nil {
					return
				}
				continue
			}
			switch raw.Mode {
			case ModeLegacy:
				m.commitImage(hello.JobID, raw.Bytes, crc)
				csp.SetAttr(obs.AttrStr("outcome", "committed"),
					obs.AttrInt("seq", m.record(log, EvCheckpointDone, 0))).End()
				rec, _ := m.Image(hello.JobID)
				if err := WriteFrame(rw, MsgCheckpointAck, CheckpointAck{Gen: rec.Generation}); err != nil {
					return
				}
			case ModeFull, ModeDelta:
				gen, size, cerr := m.commitContent(hello.JobID, raw.Mode, raw.Encoding,
					raw.RawBytes, raw.ImageBytes, raw.BaseGen, raw.ChunkSize, raw.Dirty, raw.Sums, payload)
				if cerr != nil {
					// The stream arrived intact but the patch doesn't
					// apply (stale base, bad geometry, failed chunk
					// verification) or the encoding is broken. The stream
					// is frame-aligned — exactly Bytes were consumed — so
					// Nack and let the client retry, typically as a full
					// image.
					seq := m.record(log, EvTornFrame, float64(got))
					csp.SetAttr(obs.AttrStr("outcome", "delta_rejected"),
						obs.AttrInt("seq", seq)).End()
					tr.Event(pid, tid, "torn_frame",
						obs.AttrInt("seq", seq), obs.AttrStr("cause", "delta"),
						obs.AttrStr("error", cerr.Error()))
					if err := WriteFrame(rw, MsgCheckpointNack, struct{}{}); err != nil {
						return
					}
					continue
				}
				kind, val := EvCheckpointDone, float64(raw.Bytes)
				if raw.Mode == ModeDelta {
					kind, val = EvDeltaCheckpointDone, float64(raw.Bytes)
				}
				csp.SetAttr(obs.AttrStr("outcome", "committed"),
					obs.AttrInt("gen", int64(gen)),
					obs.AttrInt("image_bytes", size),
					obs.AttrInt("seq", m.record(log, kind, val))).End()
				if err := WriteFrame(rw, MsgCheckpointAck, CheckpointAck{Gen: gen}); err != nil {
					return
				}
			default:
				// Unknown mode: refuse rather than commit garbage; the
				// stream stays aligned.
				seq := m.record(log, EvTornFrame, float64(got))
				csp.SetAttr(obs.AttrStr("outcome", "bad_mode"),
					obs.AttrInt("seq", seq)).End()
				tr.Event(pid, tid, "torn_frame",
					obs.AttrInt("seq", seq), obs.AttrStr("cause", "mode"))
				if err := WriteFrame(rw, MsgCheckpointNack, struct{}{}); err != nil {
					return
				}
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

// commitContent commits a verified content-mode checkpoint stream:
// decode the payload (inflating when the client announced an encoding),
// then commit it to the store as a full image or apply it as a delta
// patch. The returned size is the committed image length. Any error
// leaves the last good image untouched and maps to a Nack in serve.
func (m *Manager) commitContent(jobID, mode, encoding string, rawBytes, imageBytes int64,
	baseGen, chunkSize int, dirty []int, sums []imagestore.ChunkSum, payload []byte) (gen int, size int64, err error) {
	data := payload
	switch encoding {
	case "":
		if rawBytes != 0 && rawBytes != int64(len(payload)) {
			return 0, 0, fmt.Errorf("ckptnet: raw_bytes %d but %d payload bytes arrived", rawBytes, len(payload))
		}
	case "flate":
		if rawBytes < 0 || rawBytes > MaxImageBytes {
			return 0, 0, fmt.Errorf("ckptnet: inflated size %d out of range", rawBytes)
		}
		if data, err = imagestore.Decompress(payload, rawBytes); err != nil {
			return 0, 0, err
		}
	default:
		return 0, 0, fmt.Errorf("ckptnet: unknown encoding %q", encoding)
	}
	if chunkSize <= 0 {
		chunkSize = imagestore.DefaultChunkSize
	}
	switch mode {
	case ModeFull:
		g, _, icrc := m.store.CommitFull(jobID, data, chunkSize)
		m.setImage(jobID, ImageRecord{Generation: g, Bytes: int64(len(data)), CRC32: icrc})
		return g, int64(len(data)), nil
	case ModeDelta:
		d := imagestore.Delta{BaseGen: baseGen, ChunkSize: chunkSize, Size: imageBytes, Dirty: dirty, Sums: sums}
		g, icrc, derr := m.store.ApplyDelta(jobID, d, data)
		if derr != nil {
			return 0, 0, derr
		}
		m.setImage(jobID, ImageRecord{Generation: g, Bytes: imageBytes, CRC32: icrc})
		return g, imageBytes, nil
	}
	return 0, 0, fmt.Errorf("ckptnet: unknown transfer mode %q", mode)
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
