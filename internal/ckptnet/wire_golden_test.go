package ckptnet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
)

// wireScript is the fixed conversation the golden wire test records
// and replays: every message type once, DataBegin in its legacy, full
// and delta-with-manifest forms, and one checkpoint for each way the
// manager can refuse one. The image is 256 bytes in 64-byte chunks
// with hand-written content, so no frame depends on a PRNG.
type wireScript struct {
	// frames are the named messages, in recording order.
	frames []wireFrame
	// streams are the raw bytes that follow a sent frame on the wire.
	streams map[string][]byte
}

type wireFrame struct {
	name    string
	typ     MsgType
	payload any
}

const (
	wireImageBytes = 256
	wireChunk      = 64
)

func newWireScript() wireScript {
	img := imagestore.NewImage(wireImageBytes, wireChunk, 1)
	content := make([]byte, wireImageBytes)
	for i := range content {
		content[i] = byte(i*7 + 3)
	}
	img.WriteAt(content, 0)
	full, fullWire := encodeCheckpoint(img, &DeltaConfig{}, false)
	fullWire = append([]byte(nil), fullWire...)
	img.CommitBase(1)
	img.WriteAt([]byte{img.Bytes()[wireChunk+6] ^ 0xFF}, wireChunk+6)
	img.WriteAt([]byte{img.Bytes()[3*wireChunk] ^ 0x0F}, 3*wireChunk)
	delta, deltaWire := encodeCheckpoint(img, &DeltaConfig{}, false)
	gen2CRC := crc32.ChecksumIEEE(img.Bytes())
	torn := append([]byte(nil), deltaWire...)
	torn[len(torn)/2] ^= 0x5A
	legacy := DataBegin{Bytes: wireImageBytes, CRC32: ZeroCRC(wireImageBytes)}
	badMode := DataBegin{Bytes: 8, CRC32: ZeroCRC(8), Mode: "bogus"}

	return wireScript{
		frames: []wireFrame{
			{"hello", MsgHello, Hello{JobID: "golden/1", TElapsed: 120.5, TimeScale: 0.001}},
			{"hello_resume", MsgHello, Hello{JobID: "golden/1", Resume: true, Attempt: 2}},
			{"assign", MsgAssign, Assign{Model: fit.ModelExponential, Params: []float64{1.0 / 9000}, CheckpointBytes: wireImageBytes, HeartbeatSec: 10}},
			{"recovery_legacy", MsgRecoveryBegin, legacy},
			{"recovery_content", MsgRecoveryBegin, DataBegin{Bytes: wireImageBytes, CRC32: gen2CRC, Mode: ModeFull, Gen: 2}},
			{"topt", MsgTopt, ToptReport{Topt: 812.25, MeasuredC: 110, Age: 230.5, Efficiency: 0.71}},
			{"topt_fallback", MsgTopt, ToptReport{Topt: 110, MeasuredC: 110, Age: 1152.75, Fallback: true}},
			{"heartbeat", MsgHeartbeat, Heartbeat{Elapsed: 10}},
			{"ckpt_legacy", MsgCheckpointBegin, legacy},
			{"ckpt_full", MsgCheckpointBegin, full},
			{"ckpt_delta", MsgCheckpointBegin, delta},
			{"ckpt_bad_mode", MsgCheckpointBegin, badMode},
			{"ack_gen1", MsgCheckpointAck, CheckpointAck{Gen: 1}},
			{"ack_gen2", MsgCheckpointAck, CheckpointAck{Gen: 2}},
			{"nack", MsgCheckpointNack, struct{}{}},
		},
		streams: map[string][]byte{
			"ckpt_legacy":   make([]byte, wireImageBytes),
			"ckpt_full":     fullWire,
			"ckpt_delta":    deltaWire,
			"ckpt_torn":     torn,
			"ckpt_bad_mode": make([]byte, 8),
		},
	}
}

// wireReplay is the conversation played at the manager: each step
// sends a recorded frame (and the stream it announces) and names the
// recorded frames the manager must answer with, byte for byte; a hello
// opens a new connection. The delta goes out three times — clean, torn
// in flight, and clean again against the generation the first one
// superseded — so the CRC, store and mode refusals all appear, and the
// resumed connection is served the committed content image.
var wireReplay = []struct {
	send, stream string
	want         []string
}{
	{"hello", "", []string{"assign", "recovery_legacy"}},
	{"topt", "", nil},
	{"heartbeat", "", nil},
	{"ckpt_legacy", "ckpt_legacy", []string{"ack_gen1"}},
	{"ckpt_full", "ckpt_full", []string{"ack_gen1"}},
	{"ckpt_delta", "ckpt_delta", []string{"ack_gen2"}},
	{"ckpt_delta", "ckpt_torn", []string{"nack"}},
	{"ckpt_delta", "ckpt_delta", []string{"nack"}},
	{"ckpt_bad_mode", "ckpt_bad_mode", []string{"nack"}},
	{"topt_fallback", "", nil},
	{"hello_resume", "", []string{"assign", "recovery_content"}},
}

// TestGoldenWire pins the wire protocol as a fixed point, recorded at
// the commit before ckptnet's receive/commit/Nack paths were merged:
// (a) WriteFrame produces the recorded bytes for every message type,
// and (b) a manager fed the recorded frames over a raw connection
// answers with the recorded Ack/Nack frames and logs the recorded
// SessionLog event kinds.
//
// testdata/wire.golden holds "frame <name> <hex>" lines and one
// "events <kinds>" line. A missing file is recorded from the current
// tree and the test fails once, so a deliberate protocol change is
// re-recorded by deleting the file and reviewing the diff.
func TestGoldenWire(t *testing.T) {
	script := newWireScript()
	current := map[string][]byte{}
	for _, f := range script.frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
		current[f.name] = buf.Bytes()
	}

	path := filepath.Join("testdata", "wire.golden")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		var out strings.Builder
		for _, f := range script.frames {
			fmt.Fprintf(&out, "frame %s %s\n", f.name, hex.EncodeToString(current[f.name]))
		}
		fmt.Fprintf(&out, "events %s\n", strings.Join(replayWire(t, script, current), " "))
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; recorded it from this tree — review and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]byte{}
	var wantEvents string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		kind, rest, _ := strings.Cut(line, " ")
		switch kind {
		case "frame":
			name, h, _ := strings.Cut(rest, " ")
			if golden[name], err = hex.DecodeString(h); err != nil {
				t.Fatalf("%s: frame %s: %v", path, name, err)
			}
		case "events":
			wantEvents = rest
		default:
			t.Fatalf("%s: unknown line %q", path, line)
		}
	}

	if len(golden) != len(current) {
		t.Errorf("%s records %d frames, the script has %d", path, len(golden), len(current))
	}
	for name, got := range current {
		if !bytes.Equal(got, golden[name]) {
			t.Errorf("frame %s:\n got %x\nwant %x", name, got, golden[name])
		}
	}
	if t.Failed() {
		return
	}
	if got := strings.Join(replayWire(t, script, golden), " "); got != wantEvents {
		t.Errorf("session events:\n got %s\nwant %s", got, wantEvents)
	}
}

// replayWire plays wireReplay at a fresh manager using the recorded
// frame bytes, checks every reply against its recorded frame, and
// returns the session's event kinds.
func replayWire(t *testing.T, script wireScript, golden map[string][]byte) []string {
	t.Helper()
	mgr, err := NewManager(StaticAssigner(fit.ModelExponential, []float64{1.0 / 9000}, wireImageBytes))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	var conn net.Conn
	for i, step := range wireReplay {
		if strings.HasPrefix(step.send, "hello") {
			if conn != nil {
				conn.Close()
				waitSessionDone(t, mgr) // the manager reads the last frame before it sees the close
			}
			if conn, err = net.Dial("tcp", addr.String()); err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
		}
		if _, err := conn.Write(golden[step.send]); err != nil {
			t.Fatal(err)
		}
		if step.stream != "" {
			if err := WriteRawData(conn, script.streams[step.stream]); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range step.want {
			var hdr [5]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				t.Fatalf("step %d (%s): reading %s: %v", i, step.send, want, err)
			}
			reply := make([]byte, 5+binary.BigEndian.Uint32(hdr[1:]))
			copy(reply, hdr[:])
			if _, err := io.ReadFull(conn, reply[5:]); err != nil {
				t.Fatalf("step %d (%s): reading %s: %v", i, step.send, want, err)
			}
			if !bytes.Equal(reply, golden[want]) {
				t.Fatalf("step %d (%s): manager replied type %d %s, want %s %s",
					i, step.send, reply[0], reply[5:], want, golden[want][5:])
			}
			if MsgType(reply[0]) == MsgRecoveryBegin {
				if _, err := ReadData(conn, wireImageBytes); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	conn.Close()
	waitSessionDone(t, mgr)
	var kinds []string
	for _, e := range mgr.Sessions()[0].Events {
		kinds = append(kinds, e.Kind.String())
	}
	return kinds
}

// TestProcessFramesDisjoint guards the decode in Manager.serve, which
// reads any process frame into a struct embedding ToptReport, Heartbeat
// and DataBegin: encoding/json silently drops a field name that two
// embedded structs share, so the three must never overlap.
func TestProcessFramesDisjoint(t *testing.T) {
	owner := map[string]string{}
	for _, msg := range []any{ToptReport{}, Heartbeat{}, DataBegin{}} {
		typ := reflect.TypeOf(msg)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if prev, dup := owner[name]; dup {
				t.Errorf("JSON field %q is declared by both %s and %s", name, prev, typ.Name())
			}
			owner[name] = typ.Name()
		}
	}
}
