package ckptnet

import (
	"bytes"
	"context"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
)

// TestZeroCRCCacheChurn churns 10k distinct sizes through ZeroCRC and
// pins that the memo never changes an answer, first time or repeated.
func TestZeroCRCCacheChurn(t *testing.T) {
	if ZeroCRC(0) != 0 || ZeroCRC(-5) != 0 {
		t.Fatal("ZeroCRC of non-positive size must be 0")
	}
	for i := int64(1); i <= 10_000; i++ {
		size := i * 37
		got := ZeroCRC(size)
		if i%1000 == 0 {
			if want := crc32.ChecksumIEEE(make([]byte, size)); got != want {
				t.Fatalf("ZeroCRC(%d) = %08x, want %08x", size, got, want)
			}
		}
	}
	// Second pass over sizes that were certainly evicted and certainly
	// retained: both must still answer correctly.
	for _, size := range []int64{37, 500 * 37, 9_999 * 37, 10_000 * 37} {
		if got, want := ZeroCRC(size), crc32.ChecksumIEEE(make([]byte, size)); got != want {
			t.Fatalf("post-churn ZeroCRC(%d) = %08x, want %08x", size, got, want)
		}
	}
}

// TestDeltaCheckpointEndToEnd runs a delta-enabled process against the
// manager and checks that only the first checkpoint goes full, the
// rest travel as deltas, and the wire volume undercuts what full images
// would have cost.
func TestDeltaCheckpointEndToEnd(t *testing.T) {
	const imgBytes = 256 * 1024
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, imgBytes))
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
		JobID:        "delta-1",
		TimeScale:    1e-4,
		MaxIntervals: 3,
		Delta:        &DeltaConfig{ChunkSize: 4096, DirtyFrac: 0.2, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.CheckpointSecs); got != 3 {
		t.Fatalf("checkpoints = %d, want 3", got)
	}
	if rep.DeltaCheckpoints != 2 {
		t.Fatalf("delta checkpoints = %d, want 2 (first goes full)", rep.DeltaCheckpoints)
	}
	// One full image plus two ~20% deltas must beat three full images.
	if rep.WireBytes <= 0 || rep.WireBytes >= 3*imgBytes {
		t.Fatalf("wire bytes = %d, want (0, %d)", rep.WireBytes, 3*imgBytes)
	}

	// Manager side agrees: store generation, summary counters, bytes.
	_, _, gen, _, ok := mgr.Store().Lookup("delta-1")
	if !ok || gen != 3 {
		t.Fatalf("store generation = %d (ok=%v), want 3", gen, ok)
	}
	sum := mgr.Sessions()[0].Summarize()
	if sum.Checkpoints != 3 || sum.DeltaCheckpoints != 2 {
		t.Fatalf("manager summary = %+v", sum)
	}
	wantMoved := int64(imgBytes) + rep.WireBytes // zero-stream recovery bills the image size
	if sum.BytesMoved != wantMoved {
		t.Fatalf("manager BytesMoved = %d, process wire accounting says %d", sum.BytesMoved, wantMoved)
	}
}

// TestDeltaNackOnTornAndStaleBase drives the wire protocol by hand: a
// delta payload corrupted in flight is Nacked on CRC, a stale-base
// delta is Nacked by the store, and — because the manager consumed
// exactly the announced bytes both times — the same connection then
// commits the clean delta.
func TestDeltaNackOnTornAndStaleBase(t *testing.T) {
	const imgBytes = 64 * 1024
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, imgBytes))
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
	if err := WriteFrame(conn, MsgHello, Hello{JobID: "manual-delta"}); err != nil {
		t.Fatal(err)
	}
	var assign Assign
	if ft, err := ReadFrame(conn, &assign); err != nil || ft != MsgAssign {
		t.Fatalf("assign: %v %v", ft, err)
	}
	var begin DataBegin
	if ft, err := ReadFrame(conn, &begin); err != nil || ft != MsgRecoveryBegin {
		t.Fatalf("recovery begin: %v %v", ft, err)
	}
	if _, err := ReadData(conn, begin.Bytes); err != nil {
		t.Fatal(err)
	}

	img := imagestore.NewImage(imgBytes, 4096, 11)
	send := func(db DataBegin, wire []byte) MsgType {
		t.Helper()
		if err := WriteFrame(conn, MsgCheckpointBegin, db); err != nil {
			t.Fatal(err)
		}
		if err := WriteRawData(conn, wire); err != nil {
			t.Fatal(err)
		}
		var ack CheckpointAck
		ft, err := ReadFrame(conn, &ack)
		if err != nil {
			t.Fatal(err)
		}
		if ft == MsgCheckpointAck {
			img.CommitBase(ack.Gen)
		}
		return ft
	}

	// Full content checkpoint commits generation 1.
	db, wire := encodeCheckpoint(img, &DeltaConfig{}, false)
	if ft := send(db, wire); ft != MsgCheckpointAck {
		t.Fatalf("full checkpoint: got frame %d, want ack", ft)
	}

	// Delta torn in flight: announce the clean CRC, ship a corrupted
	// payload. The manager must Nack without touching generation 1.
	img.MutateFraction(0.3)
	db, wire = encodeCheckpoint(img, &DeltaConfig{}, false)
	bad := append([]byte(nil), wire...)
	bad[len(bad)/2] ^= 0x5A
	if ft := send(db, bad); ft != MsgCheckpointNack {
		t.Fatalf("torn delta: got frame %d, want nack", ft)
	}

	// Stale base generation, clean payload: Nacked by the store.
	stale := db
	stale.BaseGen = 99
	if ft := send(stale, wire); ft != MsgCheckpointNack {
		t.Fatalf("stale-base delta: got frame %d, want nack", ft)
	}
	if g := mgr.Store().Generation("manual-delta"); g != 1 {
		t.Fatalf("rejected deltas advanced generation to %d", g)
	}

	// The stream is still frame-aligned: the clean delta commits.
	if ft := send(db, wire); ft != MsgCheckpointAck {
		t.Fatalf("clean delta after nacks: got frame %d, want ack", ft)
	}
	data, _, gen, _, ok := mgr.Store().Lookup("manual-delta")
	if !ok || gen != 2 || !bytes.Equal(data, img.Bytes()) {
		t.Fatalf("committed image wrong: gen=%d ok=%v equal=%v", gen, ok, bytes.Equal(data, img.Bytes()))
	}
	sum := mgr.Sessions()[0].Summarize()
	if sum.TornFrames != 2 || sum.DeltaCheckpoints != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestDeltaChaosTornPayload is the chaos version: a fault injector
// corrupts one buffer mid-delta-transfer, the manager rejects it on
// CRC, and the process falls back to a full image on the same
// connection and completes the campaign with the right content.
func TestDeltaChaosTornPayload(t *testing.T) {
	const imgBytes = 256 * 1024
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, imgBytes))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// The process writes ~imgBytes during its first (full) checkpoint;
	// arming the one-shot corruption a chunk past that lands it inside
	// the first delta's payload stream.
	fi := NewFaultInjector(FaultConfig{Seed: 3, CorruptOnceAfter: imgBytes + 64*1024})
	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addr.String(),
		JobID:        "delta-chaos",
		TimeScale:    1e-4,
		MaxIntervals: 3,
		Retry:        RetryPolicy{MaxAttempts: 4, BackoffBase: time.Millisecond},
		WrapConn:     fi.Wrap,
		Delta:        &DeltaConfig{ChunkSize: 4096, DirtyFrac: 0.9, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CheckpointSecs) != 3 {
		t.Fatalf("checkpoints = %d, want 3", len(rep.CheckpointSecs))
	}
	if rep.CkptRetries == 0 && rep.Retries == 0 {
		t.Fatal("the injected corruption never surfaced as a retry")
	}
	if gen := mgr.Store().Generation("delta-chaos"); gen < 3 {
		t.Fatalf("store generation = %d, want >= 3", gen)
	}
	var torn int
	var committed int64 // payload bytes of the checkpoints the manager acked
	for _, s := range mgr.Sessions() {
		torn += s.Summarize().TornFrames
		s.mu.Lock()
		for _, e := range s.Events {
			if e.Kind == EvCheckpointDone || e.Kind == EvDeltaCheckpointDone {
				committed += int64(e.Value)
			}
		}
		s.mu.Unlock()
	}
	if torn == 0 {
		t.Fatal("manager never recorded the torn transfer")
	}
	// The rejected delta crossed the wire as surely as its full-image
	// resend did: WireBytes counts both.
	if rep.CkptRetries > 0 && rep.WireBytes <= committed {
		t.Fatalf("WireBytes = %d with %d Nack'd sends, want more than the %d bytes committed",
			rep.WireBytes, rep.CkptRetries, committed)
	}
}

// TestDeltaResumeAdoptsCommittedImage resets the connection mid-run;
// the resumed session receives a content-mode recovery stream of the
// committed image, adopts it as its delta base, and keeps
// checkpointing incrementally instead of restarting with full images.
func TestDeltaResumeAdoptsCommittedImage(t *testing.T) {
	const imgBytes = 128 * 1024
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, imgBytes))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// First connection dies after roughly recovery + first checkpoint;
	// the retry (odd wrap index, reset unarmed) runs to completion.
	fi := NewFaultInjector(FaultConfig{Seed: 5, ResetAfterBytes: 2*imgBytes + 8*1024, ResetEvery: 2})
	rep, err := RunProcess(context.Background(), ProcessConfig{
		Addr:         addr.String(),
		JobID:        "delta-resume",
		TimeScale:    1e-4,
		MaxIntervals: 3,
		Retry:        RetryPolicy{MaxAttempts: 4, BackoffBase: time.Millisecond},
		WrapConn:     fi.Wrap,
		Delta:        &DeltaConfig{ChunkSize: 4096, DirtyFrac: 0.25, Seed: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("reset never forced a session retry")
	}
	if rep.DeltaCheckpoints == 0 {
		t.Fatal("resumed session never sent a delta — content recovery adoption failed")
	}
	if gen := mgr.Store().Generation("delta-resume"); gen < 3 {
		t.Fatalf("store generation = %d, want >= 3", gen)
	}
	var sum Summary
	for _, s := range mgr.Sessions() {
		ss := s.Summarize()
		sum.Checkpoints += ss.Checkpoints
		sum.DeltaCheckpoints += ss.DeltaCheckpoints
	}
	if sum.Checkpoints < 3 || sum.DeltaCheckpoints == 0 {
		t.Fatalf("manager summary = %+v", sum)
	}
}

// TestZeroByteContentImageRecoversFull commits an empty content image
// and reconnects: the recovery must announce it as a content image at
// its generation — the client's cue to adopt it as a delta base — and
// not as the legacy zero stream, although it has no bytes and no chunks.
func TestZeroByteContentImageRecoversFull(t *testing.T) {
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, 0))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	connect := func(h Hello) (net.Conn, DataBegin) {
		t.Helper()
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		var assign Assign
		var begin DataBegin
		if err := WriteFrame(conn, MsgHello, h); err != nil {
			t.Fatal(err)
		}
		if ft, err := ReadFrame(conn, &assign); err != nil || ft != MsgAssign {
			t.Fatalf("assign: %v %v", ft, err)
		}
		if ft, err := ReadFrame(conn, &begin); err != nil || ft != MsgRecoveryBegin {
			t.Fatalf("recovery begin: %v %v", ft, err)
		}
		return conn, begin
	}

	conn, begin := connect(Hello{JobID: "empty-1"})
	if begin.Mode != ModeLegacy || begin.Bytes != 0 {
		t.Fatalf("first recovery: %+v, want a legacy zero-byte stream", begin)
	}
	db, wire := encodeCheckpoint(imagestore.NewImage(0, 4096, 1), &DeltaConfig{}, false)
	if err := WriteFrame(conn, MsgCheckpointBegin, db); err != nil {
		t.Fatal(err)
	}
	if err := WriteRawData(conn, wire); err != nil {
		t.Fatal(err)
	}
	var ack CheckpointAck
	if ft, err := ReadFrame(conn, &ack); err != nil || ft != MsgCheckpointAck || ack.Gen != 1 {
		t.Fatalf("empty full checkpoint: frame %d gen %d err %v, want ack of generation 1", ft, ack.Gen, err)
	}
	conn.Close()

	conn, begin = connect(Hello{JobID: "empty-1", Resume: true, Attempt: 1})
	defer conn.Close()
	if begin.Mode != ModeFull || begin.Gen != 1 || begin.Bytes != 0 {
		t.Fatalf("recovery of the empty content image: %+v, want mode %q at generation 1, 0 bytes", begin, ModeFull)
	}
}

// TestDeltaCompressedCheckpoint pins the compressed wire path: a
// compressible image ships fewer bytes than its raw payload and still
// commits bit-exact content.
func TestDeltaCompressedCheckpoint(t *testing.T) {
	const imgBytes = 64 * 1024
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, imgBytes))
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
	if err := WriteFrame(conn, MsgHello, Hello{JobID: "flate-1"}); err != nil {
		t.Fatal(err)
	}
	var assign Assign
	if _, err := ReadFrame(conn, &assign); err != nil {
		t.Fatal(err)
	}
	var begin DataBegin
	if _, err := ReadFrame(conn, &begin); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadData(conn, begin.Bytes); err != nil {
		t.Fatal(err)
	}

	// A compressible image: repeated text, not the incompressible
	// pseudo-random fill NewImage produces.
	img := imagestore.NewImage(imgBytes, 4096, 1)
	data := make([]byte, imgBytes)
	for i := range data {
		data[i] = byte("checkpoint-image "[i%17])
	}
	img.WriteAt(data, 0)
	db, wire := encodeCheckpoint(img, &DeltaConfig{Compress: true}, false)
	if db.Encoding != "flate" || db.Bytes >= int64(imgBytes) {
		t.Fatalf("compressible image did not compress: %+v", db)
	}
	if err := WriteFrame(conn, MsgCheckpointBegin, db); err != nil {
		t.Fatal(err)
	}
	if err := WriteRawData(conn, wire); err != nil {
		t.Fatal(err)
	}
	var ack CheckpointAck
	if ft, err := ReadFrame(conn, &ack); err != nil || ft != MsgCheckpointAck {
		t.Fatalf("compressed full checkpoint: %v %v", ft, err)
	}
	got, _, gen, _, ok := mgr.Store().Lookup("flate-1")
	if !ok || gen != 1 || !bytes.Equal(got, data) {
		t.Fatal("compressed image did not round-trip")
	}
}
