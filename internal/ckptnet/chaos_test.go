package ckptnet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/fit"
)

// chaosManager starts a manager with chaos-friendly timeouts.
func chaosManager(t *testing.T, ckptBytes int64, opts Options) (*Manager, string) {
	t.Helper()
	mgr, err := NewManagerOpts(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, ckptBytes), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return mgr, addr.String()
}

// fastRetry is a quick deterministic retry policy for chaos tests.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        42,
	}
}

// TestChaosDropEachMessageType drops, once, each control frame of the
// protocol — on whichever side sends it — and asserts the session
// still completes: aligned drops (topt, heartbeat) are simply absorbed,
// everything else forces a retry that succeeds.
func TestChaosDropEachMessageType(t *testing.T) {
	cases := []struct {
		name        string
		drop        MsgType
		managerSide bool
		needsRetry  bool
	}{
		{"hello", MsgHello, false, true},
		{"topt", MsgTopt, false, false},
		{"heartbeat", MsgHeartbeat, false, false},
		{"checkpoint-begin", MsgCheckpointBegin, false, true},
		{"assign", MsgAssign, true, true},
		{"recovery-begin", MsgRecoveryBegin, true, true},
		{"checkpoint-ack", MsgCheckpointAck, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fi := NewFaultInjector(FaultConfig{Seed: 7, DropOnceTypes: []MsgType{tc.drop}})
			opts := Options{HelloTimeout: 400 * time.Millisecond, MinFrameTimeout: 300 * time.Millisecond}
			if tc.managerSide {
				opts.WrapConn = fi.Wrap
			}
			mgr, err := NewManagerOpts(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, 64<<10), opts)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := mgr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()

			cfg := ProcessConfig{
				Addr:         addr.String(),
				JobID:        "drop-" + tc.name,
				TimeScale:    1e-4,
				MaxIntervals: 2,
				FrameTimeout: 300 * time.Millisecond,
				Retry:        fastRetry(5),
			}
			if !tc.managerSide {
				cfg.WrapConn = fi.Wrap
			}
			rep, err := RunProcess(context.Background(), cfg)
			if err != nil {
				t.Fatalf("session did not survive dropped %s: %v", tc.name, err)
			}
			if rep.Evicted {
				t.Fatalf("dropped %s reported as eviction", tc.name)
			}
			if tc.needsRetry && rep.Retries == 0 {
				t.Errorf("dropped %s: expected a session retry, got none", tc.name)
			}
			if !tc.needsRetry && rep.Retries != 0 {
				t.Errorf("dropped %s: unexpected retries %d (aligned drop should be absorbed)", tc.name, rep.Retries)
			}
			// The image committed through all of it.
			rec, ok := mgr.Image(cfg.JobID)
			if !ok || rec.Generation < 2 || rec.Bytes != 64<<10 || rec.CRC32 != ZeroCRC(64<<10) {
				t.Errorf("image after dropped %s = %+v, ok=%v", tc.name, rec, ok)
			}
		})
	}
}

// TestChaosStallPastDeadline injects one stall longer than the
// per-frame deadline; the deadline fires, the session is retried, and
// the retry completes because the stall budget is spent.
func TestChaosStallPastDeadline(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{
		Seed:      3,
		StallProb: 1,
		Stall:     900 * time.Millisecond,
		MaxStalls: 1,
	})
	mgr, addrStr := chaosManager(t, 32<<10, Options{HelloTimeout: 300 * time.Millisecond, MinFrameTimeout: 300 * time.Millisecond})
	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addrStr,
		JobID:        "stall-1",
		TimeScale:    1e-4,
		MaxIntervals: 1,
		FrameTimeout: 250 * time.Millisecond,
		Retry:        fastRetry(4),
		WrapConn:     fi.Wrap,
	})
	if err != nil {
		t.Fatalf("stalled session did not recover: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("stall past the deadline should have forced a retry")
	}
	if _, ok := mgr.Image("stall-1"); !ok {
		t.Error("no image committed after stall recovery")
	}
}

// TestChaosPartialWrite tears a CheckpointBegin frame in half; the
// manager detects the desynchronized stream as a torn frame and the
// process retries to success.
func TestChaosPartialWrite(t *testing.T) {
	fi := NewFaultInjector(FaultConfig{Seed: 5, PartialOnceTypes: []MsgType{MsgCheckpointBegin}})
	mgr, addrStr := chaosManager(t, 64<<10, Options{MinFrameTimeout: 300 * time.Millisecond})
	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addrStr,
		JobID:        "partial-1",
		TimeScale:    1e-4,
		MaxIntervals: 2,
		FrameTimeout: 300 * time.Millisecond,
		Retry:        fastRetry(5),
		WrapConn:     fi.Wrap,
	})
	if err != nil {
		t.Fatalf("partial write not survived: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("torn frame should have forced a retry")
	}
	waitSessionDone(t, mgr)
	var torn int
	for _, s := range mgr.Sessions() {
		torn += s.Summarize().TornFrames
	}
	if torn == 0 {
		t.Error("manager never logged the torn frame")
	}
}

// TestChaosCorruptCheckpointNack corrupts one checkpoint data chunk in
// flight: the manager's CRC check rejects the image with a NACK, keeps
// the previous image, and the in-connection retransmit succeeds.
func TestChaosCorruptCheckpointNack(t *testing.T) {
	const ckptBytes = 256 << 10
	fi := NewFaultInjector(FaultConfig{Seed: 11, CorruptOnceAfter: 100 << 10})
	mgr, addrStr := chaosManager(t, ckptBytes, Options{MinFrameTimeout: 500 * time.Millisecond})
	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addrStr,
		JobID:        "corrupt-1",
		TimeScale:    1e-4,
		MaxIntervals: 2,
		FrameTimeout: 500 * time.Millisecond,
		Retry:        fastRetry(4),
		WrapConn:     fi.Wrap,
	})
	if err != nil {
		t.Fatalf("corrupted checkpoint not survived: %v", err)
	}
	if rep.CkptRetries == 0 {
		t.Error("expected an in-connection checkpoint retransmit after the NACK")
	}
	rec, ok := mgr.Image("corrupt-1")
	if !ok || rec.Bytes != ckptBytes || rec.CRC32 != ZeroCRC(ckptBytes) {
		t.Errorf("committed image corrupt or missing: %+v, ok=%v", rec, ok)
	}
	if rec.Generation != 2 {
		t.Errorf("generation = %d, want 2 (the rejected transfer must not count)", rec.Generation)
	}
}

// TestChaosResetMidTransferImageIntact hard-closes the first connection
// partway through the second checkpoint transfer. The manager must keep
// the first committed image untouched, and the resumed session must
// finish the remaining intervals against it.
func TestChaosResetMidTransferImageIntact(t *testing.T) {
	const ckptBytes = 256 << 10
	fi := NewFaultInjector(FaultConfig{
		Seed:            13,
		ResetAfterBytes: 700 << 10, // recovery (256K) + ckpt1 (256K) + partway into ckpt2
		ResetEvery:      2,         // first connection armed, the retry clean
	})
	mgr, addrStr := chaosManager(t, ckptBytes, Options{MinFrameTimeout: 500 * time.Millisecond})
	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addrStr,
		JobID:        "reset-1",
		TimeScale:    1e-4,
		MaxIntervals: 3,
		FrameTimeout: 500 * time.Millisecond,
		Retry:        fastRetry(5),
		WrapConn:     fi.Wrap,
	})
	if err != nil {
		t.Fatalf("mid-transfer reset not survived: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("reset should have forced a session retry")
	}
	rec, ok := mgr.Image("reset-1")
	if !ok {
		t.Fatal("no image after campaign")
	}
	if rec.Bytes != ckptBytes || rec.CRC32 != ZeroCRC(ckptBytes) {
		t.Errorf("last good image damaged by torn transfer: %+v", rec)
	}
	if rec.Generation != 3 {
		t.Errorf("generation = %d, want 3 committed checkpoints", rec.Generation)
	}
	// All retries accumulated on one per-job session log.
	waitSessionDone(t, mgr)
	ss := mgr.Sessions()
	if len(ss) != 1 {
		t.Fatalf("sessions = %d, want 1 (resume must reattach)", len(ss))
	}
	sum := ss[0].Summarize()
	if sum.Retries == 0 {
		t.Errorf("manager summary missed the retry: %+v", sum)
	}
}

// waitSessionDone waits for every manager session to be finalized with
// a disconnect, so summaries are stable.
func waitSessionDone(t *testing.T, mgr *Manager) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		done := true
		for _, s := range mgr.Sessions() {
			if last, ok := s.LastEvent(); !ok || last.Kind != EvDisconnected {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sessions never finalized")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerCloseListenRace exercises Close racing Listen and the
// closed-manager terminal state (run under -race).
func TestManagerCloseListenRace(t *testing.T) {
	for i := range 20 {
		mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{0.001}, 1024))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = mgr.Listen("127.0.0.1:0")
		}()
		go func() {
			defer wg.Done()
			_ = mgr.Close()
		}()
		wg.Wait()
		_ = mgr.Close() // idempotent
		if _, err := mgr.Listen("127.0.0.1:0"); err == nil {
			t.Fatalf("iteration %d: Listen after Close must fail", i)
		}
	}
}

// TestManagerListenContextCancel shuts the manager down through its
// context.
func TestManagerListenContextCancel(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{0.001}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := mgr.ListenContext(ctx, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := mgr.Listen("127.0.0.1:0"); err != nil && strings.Contains(err.Error(), "closed") {
			break // Close ran: the manager is in its terminal state
		}
		if time.Now().After(deadline) {
			t.Fatal("context cancellation never closed the manager")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosAcceptanceCampaign is the issue's acceptance scenario: 20
// sessions under 10% frame drops plus one mid-transfer reset per
// session. Every session must complete, torn transfers must never
// damage the last good image, and the session logs must report nonzero
// retry/torn totals.
func TestChaosAcceptanceCampaign(t *testing.T) {
	const (
		sessions  = 20
		ckptBytes = 64 << 10
	)
	mgr, addrStr := chaosManager(t, ckptBytes, Options{
		HelloTimeout:    500 * time.Millisecond,
		MinFrameTimeout: 400 * time.Millisecond,
	})

	errs := make(chan error, sessions)
	for i := range sessions {
		go func() {
			fi := NewFaultInjector(FaultConfig{
				Seed:            1000 + int64(i),
				DropProb:        0.10,
				ResetAfterBytes: 100 << 10, // dies partway through the first checkpoint
				ResetEvery:      2,         // one mid-transfer reset per session
			})
			_, err := RunProcess(context.Background(), ProcessConfig{
				Addr:         addrStr,
				JobID:        fmt.Sprintf("chaos/%02d", i),
				TimeScale:    1e-4,
				MaxIntervals: 2,
				FrameTimeout: 400 * time.Millisecond,
				Retry: RetryPolicy{
					MaxAttempts: 50,
					BackoffBase: 2 * time.Millisecond,
					BackoffMax:  20 * time.Millisecond,
					Seed:        int64(i) + 1,
				},
				WrapConn: fi.Wrap,
			})
			errs <- err
		}()
	}
	for i := range sessions {
		if err := <-errs; err != nil {
			t.Fatalf("session %d aborted: %v", i, err)
		}
	}

	// Every job's last good image is whole.
	for i := range sessions {
		job := fmt.Sprintf("chaos/%02d", i)
		rec, ok := mgr.Image(job)
		if !ok {
			t.Errorf("%s: no committed image", job)
			continue
		}
		if rec.Bytes != ckptBytes || rec.CRC32 != ZeroCRC(ckptBytes) {
			t.Errorf("%s: image damaged: %+v", job, rec)
		}
		if rec.Generation < 2 {
			t.Errorf("%s: generation %d < 2", job, rec.Generation)
		}
	}

	// The chaos left visible, report-ready traces in the session logs.
	waitSessionDone(t, mgr)
	ss := mgr.Sessions()
	if len(ss) != sessions {
		t.Fatalf("sessions = %d, want %d (resumes must reattach)", len(ss), sessions)
	}
	var retries, torn, interrupted int
	for _, s := range ss {
		sum := s.Summarize()
		retries += sum.Retries
		torn += sum.TornFrames
		interrupted += sum.Interrupted
	}
	if retries == 0 {
		t.Error("campaign recorded zero retries under 10% drops + resets")
	}
	if torn+interrupted == 0 {
		t.Error("campaign recorded zero torn/interrupted transfers")
	}

	// The logs round-trip through the durable format with the new event
	// kinds intact.
	var buf bytes.Buffer
	if err := WriteSessions(&buf, ss); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSessions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var retries2 int
	for _, s := range back {
		retries2 += s.Summarize().Retries
	}
	if retries2 != retries {
		t.Errorf("retries after round trip = %d, want %d", retries2, retries)
	}
}

// TestChaosLinkDeterminism pins the virtual-time chaos primitives: the
// same seed draws the same attempt sequence.
func TestChaosLinkDeterminism(t *testing.T) {
	cl := ChaosLink{
		Inner:  FixedLink("fixed", 500*MB, 100),
		Faults: LinkFaultConfig{TearProb: 0.3, StallProb: 0.2, StallSec: 30, OutageProb: 0.1},
	}
	if cl.Name() != "fixed+chaos" {
		t.Errorf("name = %q", cl.Name())
	}
	draw := func() []TransferAttempt {
		rng := rand.New(rand.NewSource(99))
		out := make([]TransferAttempt, 50)
		for i := range out {
			out[i] = cl.Attempt(500*MB, rng)
		}
		return out
	}
	a, b := draw(), draw()
	var torn int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Torn {
			torn++
			if a[i].Sec >= a[i].FullSec || a[i].Sec <= 0 {
				t.Errorf("torn attempt %d: Sec %g not inside FullSec %g", i, a[i].Sec, a[i].FullSec)
			}
		} else if a[i].Sec != a[i].FullSec {
			t.Errorf("clean attempt %d: Sec %g != FullSec %g", i, a[i].Sec, a[i].FullSec)
		}
	}
	if torn == 0 {
		t.Error("no torn attempts in 50 draws at TearProb 0.3")
	}
	// Backoff grows and stays within the jittered cap.
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 6; attempt++ {
		bo := cl.BackoffSec(attempt, rng)
		if bo <= 0 {
			t.Fatalf("backoff %d = %g", attempt, bo)
		}
		if bo > 60*1.25+1e-9 {
			t.Errorf("backoff %d = %g exceeds jittered cap", attempt, bo)
		}
	}
}

// TestRetryBackoffMatchesDurationDoubling pins the reconnect delays
// computed through the shared float64 backoff to the time.Duration
// doubling they are defined by, delay for delay and draw for draw,
// for the default policy and for bases that do not divide the cap.
func TestRetryBackoffMatchesDurationDoubling(t *testing.T) {
	for _, pol := range []RetryPolicy{
		{BackoffBase: 200 * time.Millisecond, BackoffMax: 10 * time.Second},
		{BackoffBase: 5 * time.Millisecond, BackoffMax: 7 * time.Second},
		{BackoffBase: 3*time.Second + 1, BackoffMax: time.Hour},
	} {
		got, want := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for attempt := 1; attempt <= 40; attempt++ {
			d := pol.BackoffBase
			for i := 1; i < attempt && d < pol.BackoffMax; i++ {
				d *= 2
			}
			d = min(d, pol.BackoffMax)
			ref := time.Duration(float64(d) * (1 + retryJitter*(2*want.Float64()-1)))
			if bo := time.Duration(backoff(float64(pol.BackoffBase), float64(pol.BackoffMax), retryJitter, attempt, got)); bo != ref {
				t.Fatalf("%+v attempt %d: backoff %v, want %v", pol, attempt, bo, ref)
			}
		}
	}
}
