package ckptnet

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"time"

	"github.com/cycleharvest/ckptsched/internal/core"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
)

// RetryPolicy bounds how a process recovers from transport failures:
// a failed session (dropped connection, deadline miss, torn stream) is
// retried by reconnecting with exponential backoff plus jitter, up to
// MaxAttempts total attempts. The zero value disables retry — the
// first failure is returned to the caller, the pre-resilience
// behavior.
type RetryPolicy struct {
	// MaxAttempts is the total session attempts including the first
	// (≤1 = no retry).
	MaxAttempts int
	// BackoffBase is the delay before the first retry (default 200 ms);
	// each further retry doubles it up to BackoffMax (default 10 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter deterministic (0 derives one from JobID).
	Seed int64
}

// retryJitter randomizes each reconnect backoff by ±20% to avoid
// synchronized reconnect storms.
const retryJitter = 0.2

func (p *RetryPolicy) setDefaults() {
	if p.BackoffBase <= 0 {
		p.BackoffBase = 200 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 10 * time.Second
	}
}

// backoff returns the delay before retry attempt (1-based): base
// doubled once per earlier retry, capped at limit, then scaled by a
// uniform draw in [1−jitter, 1+jitter]. It is unit-free: RetryPolicy
// calls it in nanoseconds, ChaosLink in virtual seconds. Doubling a
// float64 is exact, so a time.Duration base yields the bits that
// doubling the integer would.
func backoff(base, limit, jitter float64, attempt int, rng *rand.Rand) float64 {
	b := base
	for i := 1; i < attempt && b < limit; i++ {
		b *= 2
	}
	if b > limit {
		b = limit
	}
	return b * (1 + jitter*(2*rng.Float64()-1))
}

// maxCkptRetries bounds in-connection checkpoint retransmissions after
// the manager rejects a corrupt image.
const maxCkptRetries = 3

// ProcessConfig configures one instrumented test process (§5.2).
type ProcessConfig struct {
	// Addr is the checkpoint manager's TCP address.
	Addr string
	// JobID identifies this process in the manager's logs.
	JobID string
	// TElapsed is the hosting resource's age (seconds since it became
	// available) at process start, if known.
	TElapsed float64
	// TimeScale compresses virtual time for testing: wall seconds =
	// virtual seconds × TimeScale. 1 runs in real time; 1e-3 runs a
	// 10-second heartbeat every 10 ms. Transfer durations measured on
	// the wire are divided by TimeScale to recover virtual seconds.
	TimeScale float64
	// MaxIntervals stops the process voluntarily after this many
	// committed checkpoints (0 = run until the context is canceled,
	// the live terminate-on-eviction behavior). Checkpoints committed
	// before a transport failure count across session retries.
	MaxIntervals int
	// FrameTimeout is the per-frame read deadline; 0 derives it from
	// the heartbeat cadence (4 heartbeat wall periods, floored at 2 s).
	FrameTimeout time.Duration
	// Retry controls session-level recovery from transport failures
	// (zero = fail fast).
	Retry RetryPolicy
	// WrapConn, when set, wraps the dialed connection — the hook the
	// FaultInjector uses to inject process-side faults.
	WrapConn func(net.Conn) net.Conn
	// Delta, when set, switches the process to content-addressed
	// checkpoints: it keeps a real image buffer and ships full content
	// on the first checkpoint, dirty-chunk deltas afterwards.
	Delta *DeltaConfig
}

// DeltaConfig tunes content-addressed delta checkpointing on the
// process side.
type DeltaConfig struct {
	// ChunkSize is the dedup granularity (≤ 0 = DefaultChunkSize).
	ChunkSize int
	// DirtyFrac is the fraction of chunks dirtied per work interval.
	// When DirtyRate is set it wins: the fraction becomes
	// 1−exp(−DirtyRate·T) for an interval of T virtual seconds.
	DirtyFrac float64
	// DirtyRate is the per-chunk touch rate in 1/virtual-second.
	DirtyRate float64
	// Compress DEFLATEs payloads when that shrinks them.
	Compress bool
	// Seed makes the synthetic image content deterministic (0 derives
	// one from JobID).
	Seed int64
}

// ProcessReport summarizes a test process run from the client side.
type ProcessReport struct {
	// Model and Params echo the manager's assignment.
	Assign Assign
	// RecoverySec is the measured initial transfer time (virtual
	// seconds).
	RecoverySec float64
	// CheckpointSecs are the measured checkpoint transfer times
	// (virtual seconds), one per committed checkpoint, accumulated
	// across session retries.
	CheckpointSecs []float64
	// Topts are the successive computed work intervals (virtual
	// seconds).
	Topts []float64
	// WorkSec is the total virtual time spent spinning (computing).
	WorkSec float64
	// Heartbeats counts heartbeat messages sent.
	Heartbeats int
	// Evicted reports whether the run ended by cancellation/disconnect
	// rather than by reaching MaxIntervals.
	Evicted bool
	// Retries counts session reconnections after transport failures.
	Retries int
	// CkptRetries counts in-connection checkpoint retransmissions
	// after the manager rejected a corrupt image.
	CkptRetries int
	// TornFrames counts corrupt transfers the process detected
	// (recovery CRC mismatches).
	TornFrames int
	// Fallbacks counts intervals scheduled without a fresh T_opt.
	Fallbacks int
	// WireBytes accumulates the checkpoint payload bytes actually sent
	// in content modes (full + delta), rejected attempts included; 0
	// for a legacy process.
	WireBytes int64
	// DeltaCheckpoints counts checkpoints committed as deltas.
	DeltaCheckpoints int
}

// procState is the durable cross-attempt state of a process: what must
// survive a transport failure for the session to resume correctly.
type procState struct {
	committed int           // checkpoints committed so far
	lastTopt  float64       // last assigned schedule (fallback on resume)
	age       float64       // resource age, virtual seconds
	measuredC float64       // last measured transfer cost, virtual seconds
	wallC     time.Duration // last transfer's wall duration (sizes ack deadlines)
	started   bool          // first recovery completed at least once
	img       *imagestore.Image
}

// RunProcess connects to the checkpoint manager and executes the
// instrumented recovery–compute–checkpoint cycle: time the recovery
// transfer, compute T_opt from the measured cost, spin while
// heart-beating every HeartbeatSec, checkpoint, re-measure, recompute,
// repeat. Cancel ctx to emulate an eviction (the connection drops
// mid-whatever, exactly as Condor's Vanilla universe kills a process).
//
// With a RetryPolicy configured, transport failures (dropped
// connections, deadline misses, torn streams) are retried with
// exponential backoff: the process reconnects, announces Resume, and
// continues from the manager's last good checkpoint image. Work
// committed before the failure is preserved.
func RunProcess(ctx context.Context, cfg ProcessConfig) (*ProcessReport, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	pol := cfg.Retry
	pol.setDefaults()
	seed := pol.Seed
	if seed == 0 {
		seed = jobSeed(cfg.JobID)
	}
	rng := rand.New(rand.NewSource(seed))

	rep := &ProcessReport{}
	st := &procState{age: cfg.TElapsed}
	for attempt := 0; ; attempt++ {
		err := runSession(ctx, cfg, rep, st, attempt)
		if err == nil {
			return rep, nil
		}
		// Eviction (context cancellation) ends the run cleanly: the
		// paper's processes terminate on eviction rather than retry.
		// Only the context distinguishes an eviction from a transport
		// failure — a mid-transfer connection reset also surfaces as a
		// closed connection, and that one must be retried.
		if ctx.Err() != nil {
			rep.Evicted = true
			return rep, nil
		}
		if cfg.Retry.MaxAttempts <= 1 {
			return rep, err
		}
		if attempt+1 >= cfg.Retry.MaxAttempts {
			return rep, fmt.Errorf("ckptnet: session failed after %d attempts: %w", attempt+1, err)
		}
		rep.Retries++
		wait := backoff(float64(pol.BackoffBase), float64(pol.BackoffMax), retryJitter, attempt+1, rng)
		select {
		case <-ctx.Done():
			rep.Evicted = true
			return rep, nil
		case <-time.After(time.Duration(wait)):
		}
	}
}

// jobSeed derives a deterministic PRNG seed from a job-scoped name.
func jobSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// expectFrame reads the next frame into out and fails with
// ErrUnexpectedFrame unless it has the type the protocol calls for.
func expectFrame(r io.Reader, want MsgType, out any) error {
	t, err := ReadFrame(r, out)
	if err == nil && t != want {
		err = ErrUnexpectedFrame
	}
	return err
}

// runSession runs one connection's worth of the protocol, from dial to
// voluntary completion (nil) or transport failure (error). Cross-
// attempt state lives in st so a retry resumes where this attempt
// stopped.
func runSession(ctx context.Context, cfg ProcessConfig, rep *ProcessReport, st *procState, attempt int) error {
	conn, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("ckptnet: dial manager: %w", err)
	}
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	defer conn.Close()
	// Eviction: tear the connection down when the context ends so
	// blocked I/O aborts immediately.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// Until the assignment announces the heartbeat cadence, bound the
	// handshake with the configured (or a conservative) deadline.
	handshakeTO := cfg.FrameTimeout
	if handshakeTO <= 0 {
		handshakeTO = 10 * time.Second
	}
	rw := &deadlineRW{conn: conn, ReadTimeout: handshakeTO, WriteTimeout: handshakeTO}

	hello := Hello{
		JobID:     cfg.JobID,
		TElapsed:  cfg.TElapsed,
		TimeScale: cfg.TimeScale,
		Resume:    attempt > 0,
		Attempt:   attempt,
	}
	if err := WriteFrame(rw, MsgHello, hello); err != nil {
		return err
	}
	var assign Assign
	if err := expectFrame(rw, MsgAssign, &assign); err != nil {
		return err
	}
	rep.Assign = assign
	hb := assign.HeartbeatSec
	if hb <= 0 {
		hb = 10
	}
	frameTO := cfg.FrameTimeout
	if frameTO <= 0 {
		frameTO = frameTimeout(hb, cfg.TimeScale, 4, 2*time.Second, 10*time.Second)
	}
	rw.ReadTimeout, rw.WriteTimeout = frameTO, frameTO
	if cfg.Delta != nil && st.img == nil {
		// Built before the recovery clock starts: synthesizing the image
		// is harness work, not transfer time.
		seed := cfg.Delta.Seed
		if seed == 0 {
			seed = jobSeed("img:" + cfg.JobID)
		}
		st.img = imagestore.NewImage(assign.CheckpointBytes, cfg.Delta.ChunkSize, seed)
	}

	// Recovery, timed. On resume the manager streams its last good
	// image; either way the measured duration re-seeds the cost
	// estimate.
	var begin DataBegin
	if err := expectFrame(rw, MsgRecoveryBegin, &begin); err != nil {
		return err
	}
	start := time.Now()
	recData, _, _, err := receive(rw, begin)
	if err != nil {
		if errors.Is(err, errCRC) {
			rep.TornFrames++
		}
		return err
	}
	if cfg.Delta != nil && recData != nil && begin.Gen > 0 {
		// Resume against the manager's committed generation: adopt it
		// as both content and delta base, so the first post-recovery
		// checkpoint can already go out as a delta.
		st.img.Adopt(recData, begin.Gen)
	}
	st.wallC = time.Since(start)
	recSec := st.wallC.Seconds() / cfg.TimeScale
	if !st.started {
		rep.RecoverySec = recSec
		st.started = true
	}
	st.age += recSec
	st.measuredC = recSec

	for {
		// Resumed sessions fall back to the last assigned schedule for
		// their first interval: the manager just proved unreliable, so
		// don't trust a single fresh measurement over it. Otherwise
		// recompute; if the optimizer finds no feasible interval, fall
		// back to the last schedule, or to the conservative
		// cost-width interval (the exponential memoryless choice that
		// keeps at most one transfer's worth of work at risk).
		var topt, eff float64
		fallback := false
		if attempt > 0 && st.lastTopt > 0 {
			// Only the first interval of a resumed session reuses the
			// old schedule; later intervals recompute normally.
			topt = st.lastTopt
			fallback = true
		} else {
			topt, eff, err = core.Routine(assign.Model, assign.Params, st.age, st.measuredC, st.measuredC)
			if err != nil {
				fallback = true
				topt = st.lastTopt
				if topt <= 0 {
					topt = st.measuredC
				}
				if topt <= 0 {
					topt = hb
				}
			}
		}
		if fallback {
			rep.Fallbacks++
		}
		attempt = 0
		st.lastTopt = topt
		rep.Topts = append(rep.Topts, topt)
		if err := WriteFrame(rw, MsgTopt, ToptReport{
			Topt: topt, MeasuredC: st.measuredC, Age: st.age, Efficiency: eff, Fallback: fallback,
		}); err != nil {
			return err
		}

		// Emulate computation: spin for topt virtual seconds, sending
		// a heartbeat every hb virtual seconds.
		if err := rep.spin(ctx, rw, topt, hb, cfg.TimeScale); err != nil {
			return err
		}

		// Checkpoint, timed to first ack; a NACK (manager detected a
		// corrupt image or refused a delta) is retried over the same
		// connection — a rejected delta falls back to a full image, the
		// recovery path for a stale or lost base.
		if cfg.Delta != nil {
			// Dirty the synthetic image once per interval; retries
			// retransmit the same content.
			frac := cfg.Delta.DirtyFrac
			if cfg.Delta.DirtyRate > 0 {
				frac = imagestore.DirtyFraction(cfg.Delta.DirtyRate, topt)
			}
			st.img.MutateFraction(frac)
		}
		var ckptWall time.Duration
		forceFull := false
		for try := 0; ; try++ {
			ckptStart := time.Now()
			begin := DataBegin{Bytes: assign.CheckpointBytes, CRC32: ZeroCRC(assign.CheckpointBytes)}
			var wire []byte
			if cfg.Delta != nil {
				begin, wire = encodeCheckpoint(st.img, cfg.Delta, forceFull)
			}
			if err := WriteFrame(rw, MsgCheckpointBegin, begin); err != nil {
				return err
			}
			if err := send(rw, begin, wire); err != nil {
				return err
			}
			if cfg.Delta != nil {
				// Sent is sent: a Nack'd payload crossed the wire too.
				rep.WireBytes += begin.Bytes
			}
			// The ack arrives only after the manager drained the whole
			// stream; allow a deadline proportional to the last
			// transfer's wall duration.
			saved := rw.ReadTimeout
			if ackTO := 4*st.wallC + frameTO; ackTO > saved {
				rw.ReadTimeout = ackTO
			}
			var ack CheckpointAck
			t, err := ReadFrame(rw, &ack)
			rw.ReadTimeout = saved
			if err != nil {
				return err
			}
			if t == MsgCheckpointNack {
				rep.CkptRetries++
				if try+1 >= maxCkptRetries {
					return fmt.Errorf("ckptnet: checkpoint rejected %d times: %w", try+1, ErrMalformedFrame)
				}
				if begin.Mode == ModeDelta {
					forceFull = true
				}
				continue
			}
			if t != MsgCheckpointAck {
				return ErrUnexpectedFrame
			}
			if cfg.Delta != nil {
				if begin.Mode == ModeDelta {
					rep.DeltaCheckpoints++
				}
				st.img.CommitBase(ack.Gen)
			}
			ckptWall = time.Since(ckptStart)
			break
		}
		st.wallC = ckptWall
		st.measuredC = ckptWall.Seconds() / cfg.TimeScale
		rep.CheckpointSecs = append(rep.CheckpointSecs, st.measuredC)
		st.committed++
		st.age += topt + st.measuredC

		if cfg.MaxIntervals > 0 && st.committed >= cfg.MaxIntervals {
			return nil
		}
	}
}

// encodeCheckpoint builds the DataBegin frame and wire payload for a
// content-mode checkpoint: a dirty-chunk delta when a committed base
// exists (and the caller isn't forcing a full resend after a Nack), the
// whole image otherwise. The CRC always checksums the bytes as they
// travel — post-compression — so the manager verifies the stream before
// decoding it.
func encodeCheckpoint(img *imagestore.Image, dc *DeltaConfig, forceFull bool) (DataBegin, []byte) {
	var begin DataBegin
	var payload []byte
	if img.HasBase() && !forceFull {
		d, p := img.EncodeDelta()
		payload = p
		begin = DataBegin{
			Mode:       ModeDelta,
			ChunkSize:  img.ChunkSize(),
			ImageBytes: img.Size(),
			BaseGen:    d.BaseGen,
			Dirty:      d.Dirty,
			Sums:       d.Sums,
		}
	} else {
		payload = img.Bytes()
		begin = DataBegin{Mode: ModeFull, ChunkSize: img.ChunkSize()}
	}
	begin.RawBytes = int64(len(payload))
	wire := payload
	if dc.Compress {
		if c, ok := imagestore.Compress(payload); ok {
			wire = c
			begin.Encoding = "flate"
		}
	}
	begin.Bytes = int64(len(wire))
	begin.CRC32 = crc32.ChecksumIEEE(wire)
	return begin, wire
}

// spin emulates computation and heartbeats for topt virtual seconds.
func (rep *ProcessReport) spin(ctx context.Context, w *deadlineRW, topt, hb, scale float64) error {
	remaining := topt
	for remaining > 0 {
		step := hb
		if step > remaining {
			step = remaining
		}
		wall := time.Duration(step * scale * float64(time.Second))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wall):
		}
		remaining -= step
		rep.WorkSec += step
		if err := WriteFrame(w, MsgHeartbeat, Heartbeat{Elapsed: rep.WorkSec}); err != nil {
			return err
		}
		rep.Heartbeats++
	}
	return nil
}
