package ckptnet

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// This file is the chaos half of the resilience layer. It has two
// parts, one per transport:
//
//   - FaultInjector wraps real net.Conn connections (the TCP
//     Manager/Process protocol) and injects frame drops, stalls,
//     partial writes, corrupt bytes, and mid-transfer resets, all
//     seeded deterministically so a chaos test replays byte-for-byte.
//
//   - ChaosLink wraps a Link (the virtual-time transfer model the
//     live campaigns use) and injects torn transfers, stall latency,
//     and manager-unreachable outages with the same determinism.

// FaultConfig selects which faults a FaultInjector applies and how
// often. All probabilities are per operation (one Write or Read call);
// a control frame is a single Write, so DropProb is effectively a
// per-frame drop rate, and data streams see one roll per 64 KiB chunk.
type FaultConfig struct {
	// Seed makes the injected fault sequence reproducible. Each
	// wrapped connection derives its own generator from Seed and the
	// order in which it was wrapped.
	Seed int64

	// DropProb silently discards an outgoing buffer: the writer is
	// told the bytes were sent, the peer never sees them. Dropping a
	// whole control frame leaves the stream aligned (the peer just
	// misses it); dropping a data chunk desynchronizes the transfer
	// and the peer's deadline eventually fires.
	DropProb float64
	// CorruptProb flips bytes in a buffer, on writes and reads alike.
	// Corrupt control frames fail to parse (torn frame); corrupt
	// checkpoint data fails CRC verification and is rejected without
	// touching the last good image.
	CorruptProb float64

	// StallProb sleeps Stall before the operation proceeds. Combined
	// with per-frame deadlines, a stall longer than the deadline looks
	// like a hung manager.
	StallProb float64
	Stall     time.Duration
	// MaxStalls bounds the total stalls injected across the injector
	// (0 = unlimited).
	MaxStalls int

	// ResetAfterBytes hard-closes the connection once that many bytes
	// have moved through it in either direction — a mid-transfer
	// connection reset (0 = off).
	ResetAfterBytes int64
	// ResetEvery applies the reset to every Nth wrapped connection
	// (1-based count, default every connection). With session retry
	// enabled, ResetEvery=2 gives the classic "first attempt dies
	// mid-transfer, the retry goes through" pattern.
	ResetEvery int

	// DropOnceTypes drops the first outgoing control frame of each
	// listed type, once per injector — the surgical knob the
	// per-message chaos tests use. Frames are recognized by their
	// leading type byte (control frames are written in one buffer).
	DropOnceTypes []MsgType
	// PartialOnceTypes truncates the first outgoing control frame of
	// each listed type to half its length, once per injector.
	PartialOnceTypes []MsgType
	// CorruptOnceAfter corrupts exactly one outgoing buffer: the first
	// Write after that many bytes have been written through the
	// connection (0 = off). Aimed at checkpoint data, it produces a
	// CRC rejection rather than a torn stream.
	CorruptOnceAfter int64

	// Tracer, when set, records every injected fault as a
	// "chaos.<kind>" instant event on pid 0 (the injector's lane),
	// tid = 1-based wrap order of the connection — so a timeline can
	// attribute a torn frame or retry to the fault that caused it.
	Tracer *obs.Tracer
}

// FaultInjector builds fault-wrapped connections. One injector is
// shared by all connections of a manager (or process) so that
// once-only faults and reset budgets apply across retries.
type FaultInjector struct {
	cfg FaultConfig

	mu        sync.Mutex
	conns     int
	stalls    int
	onceDrop  map[MsgType]bool
	oncePart  map[MsgType]bool
	corrupted bool
}

// NewFaultInjector returns an injector for the given configuration.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.ResetEvery <= 0 {
		cfg.ResetEvery = 1
	}
	fi := &FaultInjector{
		cfg:      cfg,
		onceDrop: make(map[MsgType]bool),
		oncePart: make(map[MsgType]bool),
	}
	for _, t := range cfg.DropOnceTypes {
		fi.onceDrop[t] = false
	}
	for _, t := range cfg.PartialOnceTypes {
		fi.oncePart[t] = false
	}
	return fi
}

// Wrap returns conn with the injector's faults applied. Use it as
// Options.WrapConn on the manager or ProcessConfig.WrapConn on the
// process.
func (fi *FaultInjector) Wrap(conn net.Conn) net.Conn {
	fi.mu.Lock()
	idx := fi.conns
	fi.conns++
	fi.mu.Unlock()
	return &faultConn{
		Conn:       conn,
		fi:         fi,
		idx:        idx,
		rng:        rand.New(rand.NewSource(fi.cfg.Seed + int64(idx)*1_000_003)),
		resetArmed: fi.cfg.ResetAfterBytes > 0 && idx%fi.cfg.ResetEvery == 0,
	}
}

// takeOnce claims a once-only fault slot for frame type t from m;
// returns true exactly once per registered type.
func (fi *FaultInjector) takeOnce(m map[MsgType]bool, t MsgType) bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	used, registered := m[t]
	if !registered || used {
		return false
	}
	m[t] = true
	return true
}

// takeStall claims one stall from the MaxStalls budget.
func (fi *FaultInjector) takeStall() bool {
	if fi.cfg.MaxStalls <= 0 {
		return true
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.stalls >= fi.cfg.MaxStalls {
		return false
	}
	fi.stalls++
	return true
}

// takeCorruptOnce claims the single CorruptOnceAfter fault.
func (fi *FaultInjector) takeCorruptOnce() bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.corrupted {
		return false
	}
	fi.corrupted = true
	return true
}

// faultConn applies a FaultInjector's faults to one connection. The
// rng is guarded by mu: the protocol runs each side in one goroutine,
// but evictions close conns from timer goroutines and -race must stay
// clean.
type faultConn struct {
	net.Conn
	fi  *FaultInjector
	idx int
	mu  sync.Mutex
	rng *rand.Rand

	resetArmed bool
	resetDone  bool
	moved      int64
	written    int64
}

// inject records a fired fault on the injector's trace lane (nil-safe;
// "n" is the byte count the fault touched).
func (c *faultConn) inject(kind string, n int) {
	c.fi.cfg.Tracer.Event(0, uint64(c.idx)+1, "chaos."+kind, obs.AttrInt("bytes", int64(n)))
}

// roll draws a uniform variate under the lock.
func (c *faultConn) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// account moves n bytes through the reset accounting and reports
// whether the connection should reset now.
func (c *faultConn) account(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.moved += int64(n)
	if c.resetArmed && !c.resetDone && c.moved >= c.fi.cfg.ResetAfterBytes {
		c.resetDone = true
		return true
	}
	return false
}

// isControlFrame reports whether b looks like a single control frame:
// the protocol writes frames in one buffer, so the first byte is the
// message type and the header length matches the buffer.
func isControlFrame(b []byte) (MsgType, bool) {
	if len(b) < 5 {
		return 0, false
	}
	t := MsgType(b[0])
	if t < MsgHello || t > MsgCheckpointNack {
		return 0, false
	}
	n := int(uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4]))
	return t, len(b) == 5+n
}

// maybeStall sleeps if a stall fault fires. Deadlines are absolute, so
// a stall past the peer's (or our own) deadline surfaces as a timeout.
func (c *faultConn) maybeStall() {
	cfg := &c.fi.cfg
	if cfg.StallProb <= 0 || cfg.Stall <= 0 {
		return
	}
	if c.roll() < cfg.StallProb && c.fi.takeStall() {
		c.inject("stall", 0)
		time.Sleep(cfg.Stall)
	}
}

// corrupt flips a few bytes of a copy of b.
func (c *faultConn) corrupt(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	c.mu.Lock()
	defer c.mu.Unlock()
	flips := 1 + c.rng.Intn(3)
	for range flips {
		out[c.rng.Intn(len(out))] ^= 0xA5
	}
	return out
}

func (c *faultConn) Write(b []byte) (int, error) {
	if len(b) == 0 {
		return c.Conn.Write(b)
	}
	cfg := &c.fi.cfg
	c.maybeStall()

	if t, ok := isControlFrame(b); ok {
		if c.fi.takeOnce(c.fi.onceDrop, t) {
			c.inject("drop", len(b))
			return len(b), nil
		}
		if c.fi.takeOnce(c.fi.oncePart, t) {
			c.inject("partial", len(b)/2)
			if _, err := c.Conn.Write(b[:len(b)/2]); err != nil {
				return 0, err
			}
			return len(b), nil
		}
	}
	if cfg.CorruptOnceAfter > 0 {
		c.mu.Lock()
		hit := c.written >= cfg.CorruptOnceAfter
		c.mu.Unlock()
		if hit && c.fi.takeCorruptOnce() {
			c.inject("corrupt", len(b))
			b = c.corrupt(b)
		}
	}
	if cfg.DropProb > 0 && c.roll() < cfg.DropProb {
		c.inject("drop", len(b))
		c.noteWritten(len(b))
		return len(b), nil
	}
	if cfg.CorruptProb > 0 && c.roll() < cfg.CorruptProb {
		c.inject("corrupt", len(b))
		b = c.corrupt(b)
	}
	n, err := c.Conn.Write(b)
	c.noteWritten(n)
	if err == nil && c.account(n) {
		c.inject("reset", n)
		c.Conn.Close()
		return n, net.ErrClosed
	}
	return n, err
}

func (c *faultConn) noteWritten(n int) {
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
}

func (c *faultConn) Read(b []byte) (int, error) {
	c.maybeStall()
	n, err := c.Conn.Read(b)
	cfg := &c.fi.cfg
	if n > 0 && cfg.CorruptProb > 0 && c.roll() < cfg.CorruptProb {
		c.inject("corrupt", n)
		mangled := c.corrupt(b[:n])
		copy(b, mangled)
	}
	if err == nil && c.account(n) {
		c.inject("reset", n)
		c.Conn.Close()
		return n, nil // deliver what arrived; the next op sees the reset
	}
	return n, err
}

// LinkFaultConfig configures chaos on a virtual-time Link: torn
// transfers, added stall latency, manager-unreachable outages, and
// the bounded retry policy the live runner applies when they strike.
type LinkFaultConfig struct {
	// TearProb is the per-attempt probability the transfer dies
	// partway through (connection reset / eviction of the path).
	TearProb float64
	// StallProb adds StallSec of dead time to an attempt.
	StallProb float64
	StallSec  float64
	// OutageProb is the probability a schedule recomputation finds the
	// manager unreachable, forcing the process onto its last assigned
	// schedule (or the conservative exponential interval).
	OutageProb float64

	// MaxAttempts bounds transfer retries before the process degrades
	// (default 3).
	MaxAttempts int
}

// The exponential backoff between chaotic transfer attempts, in virtual
// seconds: 5 s doubling to 60 s, each randomized by ±25%.
const (
	linkBackoffBaseSec = 5.0
	linkBackoffMaxSec  = 60.0
	linkBackoffJitter  = 0.25
)

func (f *LinkFaultConfig) setDefaults() {
	if f.MaxAttempts <= 0 {
		f.MaxAttempts = 3
	}
}

// TransferAttempt is the outcome of one chaotic transfer attempt.
type TransferAttempt struct {
	// Sec is how long the attempt occupied the link: the full transfer
	// when it completed, the time until the tear when it didn't.
	Sec float64
	// FullSec is the duration the transfer would have taken untorn
	// (used to prorate partial network volume).
	FullSec float64
	// Torn reports whether the attempt died partway.
	Torn bool
}

// ChaosLink wraps a Link with fault injection for the virtual-time
// live campaigns. It still implements Link (clean transfer times), and
// the live runner detects the extra methods to drive retries,
// degradation, and chaos accounting.
type ChaosLink struct {
	Inner  Link
	Faults LinkFaultConfig
}

// TransferTime implements Link by delegating to the inner link.
func (c ChaosLink) TransferTime(bytes int64, rng *rand.Rand) float64 {
	return c.Inner.TransferTime(bytes, rng)
}

// Name implements Link.
func (c ChaosLink) Name() string { return c.Inner.Name() + "+chaos" }

// Attempt draws one transfer attempt: its clean duration from the
// inner link, plus any stall, tear, or both.
func (c ChaosLink) Attempt(bytes int64, rng *rand.Rand) TransferAttempt {
	f := c.Faults
	f.setDefaults()
	full := c.Inner.TransferTime(bytes, rng)
	if f.StallProb > 0 && rng.Float64() < f.StallProb {
		full += f.StallSec
	}
	a := TransferAttempt{Sec: full, FullSec: full}
	if f.TearProb > 0 && rng.Float64() < f.TearProb {
		a.Torn = true
		// Tear somewhere in the middle 90% of the transfer.
		a.Sec = full * (0.05 + 0.9*rng.Float64())
	}
	return a
}

// Unreachable reports whether a schedule recomputation finds the
// manager down.
func (c ChaosLink) Unreachable(rng *rand.Rand) bool {
	return c.Faults.OutageProb > 0 && rng.Float64() < c.Faults.OutageProb
}

// MaxAttempts is the per-transfer retry bound.
func (c ChaosLink) MaxAttempts() int {
	f := c.Faults
	f.setDefaults()
	return f.MaxAttempts
}

// BackoffSec returns the jittered exponential backoff before retry
// attempt (1-based), in virtual seconds.
func (c ChaosLink) BackoffSec(attempt int, rng *rand.Rand) float64 {
	return backoff(linkBackoffBaseSec, linkBackoffMaxSec, linkBackoffJitter, attempt, rng)
}
