package ckptnet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
)

// MsgType tags a protocol frame.
type MsgType byte

// Protocol frame types. Control frames carry a JSON payload; the
// recovery and checkpoint frames are followed by exactly Bytes raw
// data bytes on the wire.
const (
	MsgHello           MsgType = 1 // process → manager: introduce job
	MsgAssign          MsgType = 2 // manager → process: model + parameters
	MsgRecoveryBegin   MsgType = 3 // manager → process: raw data follows
	MsgTopt            MsgType = 4 // process → manager: interval report
	MsgHeartbeat       MsgType = 5 // process → manager: cumulative runtime
	MsgCheckpointBegin MsgType = 6 // process → manager: raw data follows
	MsgCheckpointAck   MsgType = 7 // manager → process: checkpoint stored
	MsgCheckpointNack  MsgType = 8 // manager → process: checkpoint rejected (torn/corrupt), retry
)

// maxFrame bounds control-frame payloads (data streams are unbounded
// and framed by their announced byte counts instead).
const maxFrame = 1 << 20

// Hello introduces a test process to the manager.
type Hello struct {
	JobID string `json:"job_id"`
	// TElapsed is how long the hosting resource had been available
	// when the process started, in seconds (0 when unknown).
	TElapsed float64 `json:"t_elapsed"`
	// TimeScale is the process's wall-seconds-per-virtual-second
	// compression (0 when unannounced). The manager derives its
	// per-frame read deadlines from HeartbeatSec × TimeScale: under
	// compression a heartbeat arrives every few milliseconds and the
	// deadline shrinks to match.
	TimeScale float64 `json:"time_scale,omitempty"`
	// Resume marks a reconnection after a transport failure: the
	// manager reattaches the process to its existing session log and
	// serves recovery from the last good checkpoint image.
	Resume bool `json:"resume,omitempty"`
	// Attempt is the 0-based session attempt number (logged as the
	// EvRetry value on resume).
	Attempt int `json:"attempt,omitempty"`
}

// Assign tells the process which availability model to schedule with
// (the manager fits models centrally from its trace archive).
type Assign struct {
	Model  fit.Model `json:"model"`
	Params []float64 `json:"params"`
	// CheckpointBytes is the image size to transfer each way.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// HeartbeatSec is the heartbeat period (the paper uses 10 s).
	HeartbeatSec float64 `json:"heartbeat_sec"`
}

// Transfer modes a DataBegin can announce. The zero value is the
// legacy wire format: a zero-filled stream whose only meaningful
// property is its byte count.
const (
	// ModeLegacy streams Bytes zero bytes (pre-delta wire format).
	ModeLegacy = ""
	// ModeFull streams the actual image content, optionally compressed.
	ModeFull = "full"
	// ModeDelta streams only the dirty chunks of a content-addressed
	// delta against the previously committed generation (DESIGN.md §16).
	ModeDelta = "delta"
)

// DataBegin announces a raw transfer of Bytes bytes immediately
// following the frame (used by MsgRecoveryBegin and
// MsgCheckpointBegin).
//
// The delta-checkpoint extension rides in the optional fields: Mode
// selects the legacy zero-stream, a full content image, or a chunk
// delta; for content modes the stream carries real bytes (compressed
// when Encoding says so) and CRC32 still checksums exactly what is on
// the wire, so torn-transfer detection works identically in every
// mode — the receiver always consumes exactly Bytes bytes, keeping the
// frame stream aligned for a Nack.
type DataBegin struct {
	Bytes int64 `json:"bytes"`
	// CRC32 is the IEEE checksum of the data stream (0 = unverified,
	// the pre-resilience wire format). The receiver verifies it before
	// committing a checkpoint, so a corrupted transfer is rejected
	// instead of replacing the last good image.
	CRC32 uint32 `json:"crc32,omitempty"`

	// Mode is ModeLegacy, ModeFull, or ModeDelta.
	Mode string `json:"mode,omitempty"`
	// Encoding is "flate" when the stream is DEFLATE-compressed; empty
	// means raw. RawBytes is the decompressed payload length.
	Encoding string `json:"encoding,omitempty"`
	RawBytes int64  `json:"raw_bytes,omitempty"`
	// ChunkSize is the dedup granularity (content modes).
	ChunkSize int `json:"chunk_size,omitempty"`
	// ImageBytes is the full image size a delta reconstructs.
	ImageBytes int64 `json:"image_bytes,omitempty"`
	// BaseGen is the committed generation a delta patches.
	BaseGen int `json:"base_gen,omitempty"`
	// Dirty and Sums are the delta's patched chunk indices and their
	// content addresses (the per-chunk manifest the store verifies).
	Dirty []int                 `json:"dirty,omitempty"`
	Sums  []imagestore.ChunkSum `json:"sums,omitempty"`
	// Gen is the committed generation backing a recovery stream, so a
	// resuming client can re-adopt the image as its delta base.
	Gen int `json:"gen,omitempty"`
}

// CheckpointAck is the payload of MsgCheckpointAck: the generation the
// manager committed, which the client records as its next delta base.
// Legacy clients decode into nothing and ignore it.
type CheckpointAck struct {
	Gen int `json:"gen,omitempty"`
}

// ToptReport is the process's per-interval log record: the interval it
// computed, the transfer time it measured, and the resource age used.
type ToptReport struct {
	Topt       float64 `json:"topt"`
	MeasuredC  float64 `json:"measured_c"`
	Age        float64 `json:"age"`
	Efficiency float64 `json:"efficiency"`
	// Fallback marks an interval scheduled without a fresh T_opt
	// solution — the process reused its last assigned schedule (or the
	// conservative default) because recomputation failed or the
	// session had just been resumed after a transport failure.
	Fallback bool `json:"fallback,omitempty"`
}

// Heartbeat carries the cumulative seconds since the process began.
type Heartbeat struct {
	Elapsed float64 `json:"elapsed"`
}

// WriteFrame writes one control frame as a single Write call, so a
// frame either reaches the transport whole or not at all (the property
// the fault injector's frame-level drops rely on).
func WriteFrame(w io.Writer, t MsgType, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("ckptnet: marshal %d: %w", t, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("ckptnet: frame too large: %d", len(body))
	}
	frame := make([]byte, 5+len(body))
	frame[0] = byte(t)
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(body)))
	copy(frame[5:], body)
	_, err = w.Write(frame)
	return err
}

// ErrMalformedFrame tags frames that arrived but could not be parsed —
// an oversized length, an undecodable payload, or a stream that lost
// frame alignment. Receivers treat it as a torn frame (the peer or the
// network mangled the stream) rather than a clean disconnect.
var ErrMalformedFrame = errors.New("ckptnet: malformed frame")

// ReadFrame reads one control frame and unmarshals its payload into
// out (pass nil to discard).
func ReadFrame(r io.Reader, out any) (MsgType, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, fmt.Errorf("ckptnet: oversized frame %d: %w", n, ErrMalformedFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, err
	}
	t := MsgType(hdr[0])
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return t, fmt.Errorf("ckptnet: unmarshal frame %d: %v: %w", t, err, ErrMalformedFrame)
		}
	}
	return t, nil
}

// ErrUnexpectedFrame is returned when a peer violates the protocol
// state machine.
var ErrUnexpectedFrame = errors.New("ckptnet: unexpected frame")

// chunkSize is the unit in which raw data streams are written.
const chunkSize = 64 << 10

// WriteData streams n pseudo-payload bytes to w. The content is
// irrelevant (the paper transfers memory images; we transfer zeroed
// buffers), only the byte count matters to timing.
func WriteData(w io.Writer, n int64) error {
	buf := make([]byte, chunkSize)
	for n > 0 {
		c := int64(len(buf))
		if c > n {
			c = n
		}
		if _, err := w.Write(buf[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// WriteRawData streams real content bytes to w in chunkSize units, so
// each Write stays under the per-Write deadline and the fault
// injector's per-chunk rolls apply the same way they do to WriteData's
// zero stream.
func WriteRawData(w io.Writer, data []byte) error {
	for len(data) > 0 {
		c := chunkSize
		if c > len(data) {
			c = len(data)
		}
		if _, err := w.Write(data[:c]); err != nil {
			return err
		}
		data = data[c:]
	}
	return nil
}

// MaxImageBytes bounds a content-mode transfer the receiver is willing
// to buffer (content modes must hold the image in memory to verify and
// commit it; the legacy zero stream is unbounded because it is
// discarded as it arrives).
const MaxImageBytes = 1 << 30

// ReadDataBuf consumes exactly n raw bytes from r into a fresh buffer
// while computing the stream CRC — the content-mode counterpart of
// ReadDataCRC. got reports how many bytes actually arrived (short on
// error, for partial-transfer accounting).
func ReadDataBuf(r io.Reader, n int64) (buf []byte, got int64, crc uint32, err error) {
	if n < 0 || n > MaxImageBytes {
		return nil, 0, 0, fmt.Errorf("ckptnet: content transfer of %d bytes: %w", n, ErrMalformedFrame)
	}
	buf = make([]byte, n)
	for got < n {
		c := int64(chunkSize)
		if c > n-got {
			c = n - got
		}
		k, err := io.ReadFull(r, buf[got:got+c])
		crc = crc32.Update(crc, crc32.IEEETable, buf[got:got+int64(k)])
		got += int64(k)
		if err != nil {
			return buf[:got], got, crc, err
		}
	}
	return buf, got, crc, nil
}

// ReadData consumes exactly n raw bytes from r, returning the number
// actually read (short on error — the partial-transfer measurement the
// manager records when a process is evicted mid-checkpoint). Test
// seam: the manager reads through ReadDataCRC; the wire tests use this
// CRC-free form to drain raw streams.
func ReadData(r io.Reader, n int64) (int64, error) {
	got, _, err := ReadDataCRC(r, n)
	return got, err
}

// ReadDataCRC consumes exactly n raw bytes from r while computing the
// IEEE CRC32 of the stream, so the receiver can verify integrity
// against the checksum announced in DataBegin before committing.
func ReadDataCRC(r io.Reader, n int64) (got int64, crc uint32, err error) {
	buf := make([]byte, chunkSize)
	for got < n {
		c := int64(len(buf))
		if c > n-got {
			c = n - got
		}
		k, err := io.ReadFull(r, buf[:c])
		crc = crc32.Update(crc, crc32.IEEETable, buf[:k])
		got += int64(k)
		if err != nil {
			return got, crc, err
		}
	}
	return got, crc, nil
}

// errCRC reports a stream that arrived whole but does not match the
// checksum its DataBegin announced.
var errCRC = errors.New("ckptnet: stream failed CRC check")

// receive consumes the raw stream b announces — the one receive both
// sides use, for recovery and checkpoint alike. The legacy zero stream
// is discarded as it arrives; content modes are buffered (bounded by
// MaxImageBytes) because they must be verified and committed whole. A
// negative count is refused before a byte is read. crc is the checksum
// of what arrived; when b announces one and it differs the error is
// errCRC, and because exactly b.Bytes bytes were consumed the frame
// stream is still aligned for a Nack. got is short on an I/O error.
func receive(r io.Reader, b DataBegin) (payload []byte, got int64, crc uint32, err error) {
	if b.Bytes < 0 {
		return nil, 0, 0, fmt.Errorf("ckptnet: transfer of %d bytes: %w", b.Bytes, ErrMalformedFrame)
	}
	if b.Mode == ModeLegacy {
		got, crc, err = ReadDataCRC(r, b.Bytes)
	} else {
		payload, got, crc, err = ReadDataBuf(r, b.Bytes)
	}
	if err == nil && b.CRC32 != 0 && crc != b.CRC32 {
		err = errCRC
	}
	return payload, got, crc, err
}

// send writes the raw stream b announces, after its frame: b.Bytes
// zeros in legacy mode, the data slices one after another in the
// content modes.
func send(w io.Writer, b DataBegin, data ...[]byte) error {
	if b.Mode == ModeLegacy {
		return WriteData(w, b.Bytes)
	}
	for _, d := range data {
		if err := WriteRawData(w, d); err != nil {
			return err
		}
	}
	return nil
}

// zeroCRCMemo memoizes ZeroCRC by size (int64 → uint32). Callers pass
// the assigned image size, so a run holds a handful of entries.
var zeroCRCMemo sync.Map

// ZeroCRC returns the IEEE CRC32 of n zero bytes — the checksum of the
// pseudo-payload WriteData streams, announced in DataBegin so the
// receiver can detect in-flight corruption.
func ZeroCRC(n int64) uint32 {
	if n <= 0 {
		return 0
	}
	if crc, ok := zeroCRCMemo.Load(n); ok {
		return crc.(uint32)
	}
	buf := make([]byte, chunkSize)
	var crc uint32
	for left := n; left > 0; {
		c := int64(len(buf))
		if c > left {
			c = left
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:c])
		left -= c
	}
	zeroCRCMemo.Store(n, crc)
	return crc
}
