package ckptnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/fit"
)

func TestEmulatedLinkCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	campus := CampusLink()
	wan := WideAreaLink()
	const n = 20000
	var cSum, wSum float64
	for range n {
		cSum += campus.TransferTime(500*MB, rng)
		wSum += wan.TransferTime(500*MB, rng)
	}
	cMean, wMean := cSum/n, wSum/n
	// The paper's measured averages: 110 s on campus, 475 s wide-area.
	if math.Abs(cMean-110) > 5 {
		t.Errorf("campus mean transfer = %g s, want ≈110", cMean)
	}
	if math.Abs(wMean-475) > 20 {
		t.Errorf("wide-area mean transfer = %g s, want ≈475", wMean)
	}
	if campus.Name() != "campus" || wan.Name() != "wide-area" {
		t.Errorf("names: %q, %q", campus.Name(), wan.Name())
	}
}

func TestEmulatedLinkDeterministicWithoutSigma(t *testing.T) {
	l := FixedLink("fixed", 500*MB, 100)
	got := l.TransferTime(500*MB, nil)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("fixed transfer = %g, want 100", got)
	}
	// Scales linearly with size.
	if half := l.TransferTime(250*MB, nil); math.Abs(half-50) > 1e-9 {
		t.Errorf("half-size transfer = %g, want 50", half)
	}
	// Zero bytes costs only latency.
	l2 := EmulatedLink{MeanMBps: 1, LatencySec: 0.5}
	if got := l2.TransferTime(0, nil); got != 0.5 {
		t.Errorf("zero-byte transfer = %g", got)
	}
	if !strings.Contains(l2.Name(), "emulated") {
		t.Errorf("default name = %q", l2.Name())
	}
}

func TestEmulatedLinkJitterIsMeanPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := EmulatedLink{MeanMBps: 2, Sigma: 0.5}
	const n = 300000
	sum := 0.0
	for range n {
		sum += l.TransferTime(100*MB, rng)
	}
	want := 100.0 / 2
	if math.Abs(sum/n-want)/want > 0.02 {
		t.Errorf("jittered mean = %g, want %g", sum/n, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Assign{Model: fit.ModelHyperexp2, Params: []float64{0.5, 0.5, 0.1, 0.001}, CheckpointBytes: 500 * MB, HeartbeatSec: 10}
	if err := WriteFrame(&buf, MsgAssign, in); err != nil {
		t.Fatal(err)
	}
	var out Assign
	typ, err := ReadFrame(&buf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgAssign {
		t.Errorf("type = %d", typ)
	}
	if out.Model != in.Model || out.CheckpointBytes != in.CheckpointBytes || len(out.Params) != 4 {
		t.Errorf("round trip = %+v", out)
	}
}

func TestReadFrameErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadFrame(strings.NewReader("\x01\x00"), nil); err == nil {
		t.Error("truncated header should error")
	}
	// Oversized frame.
	var buf bytes.Buffer
	buf.Write([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf, nil); err == nil {
		t.Error("oversized frame should error")
	}
	// Bad JSON payload.
	buf.Reset()
	buf.Write([]byte{1, 0, 0, 0, 2})
	buf.WriteString("{{")
	var out Hello
	if _, err := ReadFrame(&buf, &out); err == nil {
		t.Error("bad payload should error")
	}
}

func TestDataStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteData(&buf, 200000); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 200000 {
		t.Fatalf("wrote %d", buf.Len())
	}
	got, err := ReadData(&buf, 200000)
	if err != nil || got != 200000 {
		t.Errorf("read %d, %v", got, err)
	}
	// Short stream reports the partial count.
	buf.Reset()
	if err := WriteData(&buf, 1000); err != nil {
		t.Fatal(err)
	}
	got, err = ReadData(&buf, 5000)
	if err == nil {
		t.Error("short read should error")
	}
	if got != 1000 {
		t.Errorf("partial read = %d", got)
	}
}

func TestSessionLogSummary(t *testing.T) {
	l := &SessionLog{JobID: "j", CheckpointBytes: 100}
	l.Add(EvConnected, 0)
	l.Add(EvRecoveryDone, 0)
	l.Add(EvTopt, 500)
	l.Add(EvHeartbeat, 10)
	l.Add(EvHeartbeat, 20)
	l.Add(EvCheckpointDone, 0)
	l.Add(EvCheckpointInterrupted, 40)
	l.Add(EvDisconnected, 0)
	s := l.Summarize()
	if s.Recoveries != 1 || s.Checkpoints != 1 || s.Interrupted != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.BytesMoved != 100+100+40 {
		t.Errorf("bytes = %d", s.BytesMoved)
	}
	if s.Heartbeats != 2 || s.LastHeartbeat != 20 || s.ToptReports != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestEventKindString(t *testing.T) {
	if EvRecoveryDone.String() != "recovery-done" || EventKind(99).String() != "event(99)" {
		t.Error("event kind strings wrong")
	}
}

func TestManagerProcessIntegration(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, 256*1024))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addr.String(),
		JobID:        "itest-1",
		TimeScale:    1e-4, // 10 s of virtual heartbeat -> 1 ms wall
		MaxIntervals: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted {
		t.Error("voluntary completion flagged as eviction")
	}
	if len(rep.CheckpointSecs) != 2 || len(rep.Topts) < 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.RecoverySec <= 0 || rep.WorkSec <= 0 || rep.Heartbeats == 0 {
		t.Errorf("report = %+v", rep)
	}
	// The manager saw the whole session.
	sessions := mgr.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	s := sessions[0].Summarize()
	if s.Recoveries != 1 || s.Checkpoints != 2 || s.ToptReports < 2 || s.Heartbeats == 0 {
		t.Errorf("manager summary = %+v", s)
	}
	if sessions[0].JobID != "itest-1" {
		t.Errorf("job id = %q", sessions[0].JobID)
	}
}

func TestManagerProcessEviction(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelWeibull, []float64{0.43, 3409}, 4*MB))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// Evict shortly after start: with a large image relative to the
	// deadline the process dies during a transfer or early spin.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := RunProcess(ctx, ProcessConfig{
		Addr:      addr.String(),
		JobID:     "evicted-1",
		TimeScale: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Evicted {
		t.Error("expected eviction")
	}
	// Give the manager a beat to finalize the session log.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ss := mgr.Sessions()
		if len(ss) == 1 {
			if last, ok := ss[0].LastEvent(); ok && last.Kind == EvDisconnected {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("manager never finalized the session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestManagerRejectsGarbage(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{0.001}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The manager should drop the connection without logging a
	// session.
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		// Any bytes back would be wrong for a garbage hello... the
		// read should fail with EOF when the manager hangs up.
		t.Error("manager replied to garbage")
	} else if err != io.EOF && !strings.Contains(err.Error(), "reset") && !strings.Contains(err.Error(), "closed") {
		t.Logf("read ended with %v (acceptable)", err)
	}
	if n := len(mgr.Sessions()); n != 0 {
		t.Errorf("garbage created %d sessions", n)
	}
}

// scriptedManager accepts one connection, consumes the Hello, sends an
// assignment of imgBytes and then runs script on the connection — a
// stand-in manager for driving the process side through sequences the
// real one never produces. The connection closes when script returns.
func scriptedManager(t *testing.T, imgBytes int64, script func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadFrame(conn, nil); err != nil {
			return
		}
		assign := Assign{Model: fit.ModelExponential, Params: []float64{0.001}, CheckpointBytes: imgBytes, HeartbeatSec: 10}
		if err := WriteFrame(conn, MsgAssign, assign); err != nil {
			return
		}
		script(conn)
	}()
	return ln.Addr().String()
}

// TestNegativeByteCountRefused announces a negative stream length on
// both sides of the protocol. The manager must hang up without an Ack
// and without recording an image in any mode (a legacy frame used to
// be acknowledged and committed as a -5 byte image, which the job's
// next recovery then announced); the process must fail the recovery
// as a malformed frame rather than schedule against it.
func TestNegativeByteCountRefused(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{0.001}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for _, mode := range []string{ModeLegacy, ModeFull, ModeDelta} {
		job := "negative/" + mode
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteFrame(conn, MsgHello, Hello{JobID: job}); err != nil {
			t.Fatal(err)
		}
		if ft, err := ReadFrame(conn, nil); err != nil || ft != MsgAssign {
			t.Fatalf("assign: %v %v", ft, err)
		}
		var begin DataBegin
		if ft, err := ReadFrame(conn, &begin); err != nil || ft != MsgRecoveryBegin {
			t.Fatalf("recovery begin: %v %v", ft, err)
		}
		if _, err := ReadData(conn, begin.Bytes); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(conn, MsgCheckpointBegin, DataBegin{Bytes: -5, Mode: mode}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if ft, err := ReadFrame(conn, nil); err == nil {
			t.Errorf("mode %q: manager answered a negative byte count with frame type %d", mode, ft)
		}
		if rec, ok := mgr.Image(job); ok {
			t.Errorf("mode %q: negative byte count committed %+v", mode, rec)
		}
	}

	for _, mode := range []string{ModeLegacy, ModeFull} {
		addr := scriptedManager(t, 1024, func(conn net.Conn) {
			if WriteFrame(conn, MsgRecoveryBegin, DataBegin{Bytes: -5, Mode: mode}) == nil {
				_, _ = ReadFrame(conn, nil) // hold the connection until the process gives up
			}
		})
		_, err := RunProcess(context.Background(), ProcessConfig{
			Addr: addr, JobID: "negative-recovery", TimeScale: 1e-4, MaxIntervals: 1,
		})
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("mode %q: recovery of -5 bytes ended with %v, want ErrMalformedFrame", mode, err)
		}
	}
}

// TestImageBuiltBeforeRecoveryClock pins what the recovery stopwatch
// covers: the synthetic image of a delta process is built once the
// assignment is known, not between reading the recovery frame and
// stopping the clock, so RecoverySec and the first measured C are
// transfer time only. The manager here withholds MsgRecoveryBegin; the
// image must exist anyway.
func TestImageBuiltBeforeRecoveryClock(t *testing.T) {
	const imgBytes = 64 << 10
	addr := scriptedManager(t, imgBytes, func(net.Conn) {})
	st := &procState{}
	err := runSession(context.Background(), ProcessConfig{
		Addr: addr, JobID: "stopwatch", TimeScale: 1e-4, Delta: &DeltaConfig{ChunkSize: 4096},
	}, &ProcessReport{}, st, 0)
	if err == nil {
		t.Fatal("session without a recovery frame succeeded")
	}
	if st.img == nil || st.img.Size() != imgBytes {
		t.Fatalf("image not built before the recovery frame was read (img=%v)", st.img)
	}
}

func TestManagerManyConcurrentProcesses(t *testing.T) {
	// Stress the manager with parallel sessions (run under -race in
	// CI): concurrent accept, per-session logging, and clean shutdown.
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	const procs = 10
	errs := make(chan error, procs)
	for i := range procs {
		i := i
		go func() {
			_, err := RunProcess(context.Background(), ProcessConfig{
				Addr:         addr.String(),
				JobID:        fmt.Sprintf("stress/%d", i),
				TimeScale:    1e-4,
				MaxIntervals: 2,
			})
			errs <- err
		}()
	}
	for range procs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sessions := mgr.Sessions()
	if len(sessions) != procs {
		t.Fatalf("sessions = %d, want %d", len(sessions), procs)
	}
	seen := make(map[string]bool)
	for _, s := range sessions {
		if seen[s.JobID] {
			t.Errorf("duplicate session %q", s.JobID)
		}
		seen[s.JobID] = true
		sum := s.Summarize()
		if sum.Recoveries != 1 || sum.Checkpoints != 2 {
			t.Errorf("%s: summary %+v", s.JobID, sum)
		}
	}
}

func TestNewManagerNilAssigner(t *testing.T) {
	if _, err := NewManager(nil); err == nil {
		t.Error("nil assigner should error")
	}
}

func TestManagerString(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{0.001}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mgr.String(), "unbound") {
		t.Errorf("unbound manager string = %q", mgr.String())
	}
	if _, err := mgr.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if !strings.Contains(mgr.String(), "127.0.0.1") {
		t.Errorf("bound manager string = %q", mgr.String())
	}
}
