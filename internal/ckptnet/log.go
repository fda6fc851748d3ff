package ckptnet

import (
	"fmt"
	"sync"
	"time"

	"github.com/cycleharvest/ckptsched/internal/fit"
)

// EventKind classifies a session-log event.
type EventKind int

// Session-log event kinds, in the order a healthy session produces
// them.
const (
	EvConnected EventKind = iota
	EvRecoveryDone
	EvRecoveryInterrupted
	EvTopt
	EvHeartbeat
	EvCheckpointDone
	EvCheckpointInterrupted
	EvDisconnected
	// EvRetry marks a session resumed after a transport failure (the
	// process reconnected with Hello.Resume; value = attempt number).
	EvRetry
	// EvTornFrame marks a frame that arrived mangled — corrupt
	// payload, lost stream alignment, or a checkpoint whose CRC did
	// not match (value = bytes read when detected).
	EvTornFrame
	// EvFallback marks an interval the process scheduled without a
	// fresh T_opt — it fell back to its last assigned schedule or the
	// conservative default (value = the interval used).
	EvFallback
	// EvDeltaCheckpointDone marks a committed content-addressed delta
	// checkpoint (value = payload bytes that crossed the wire, which is
	// legitimately 0 for a fully deduped image).
	EvDeltaCheckpointDone

	// evKindEnd is one past the last kind (keeps the serialization
	// table in logio.go complete).
	evKindEnd
)

func (k EventKind) String() string {
	switch k {
	case EvConnected:
		return "connected"
	case EvRecoveryDone:
		return "recovery-done"
	case EvRecoveryInterrupted:
		return "recovery-interrupted"
	case EvTopt:
		return "topt"
	case EvHeartbeat:
		return "heartbeat"
	case EvCheckpointDone:
		return "checkpoint-done"
	case EvCheckpointInterrupted:
		return "checkpoint-interrupted"
	case EvDisconnected:
		return "disconnected"
	case EvRetry:
		return "retry"
	case EvTornFrame:
		return "torn-frame"
	case EvFallback:
		return "fallback"
	case EvDeltaCheckpointDone:
		return "delta-checkpoint-done"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// LogEvent is one manager-side observation about a session.
type LogEvent struct {
	// Seq is the 1-based monotonic sequence id within the session.
	// Events sharing a wall-clock timestamp stay unambiguous post hoc,
	// and trace spans carry the same id as their "seq" attribute so a
	// timeline row can be matched to its log entry exactly.
	Seq int64
	// Wall is the manager's wall-clock timestamp.
	Wall time.Time
	// Kind classifies the event.
	Kind EventKind
	// Value is kind-dependent: seconds for transfers and heartbeats,
	// the computed T_opt for EvTopt, bytes moved for interrupted
	// transfers.
	Value float64
}

// SessionLog is the manager's per-process record — the paper's "log
// file for each test process from which the overhead ratio can be
// calculated post facto".
type SessionLog struct {
	mu sync.Mutex

	// traceID is the manager-assigned trace pid for this session
	// (1-based creation order); 0 when the log was built outside a
	// manager (tests, ReadSessions).
	traceID uint64

	// JobID identifies the test process.
	JobID string
	// Model and Params echo the assignment.
	Model  fit.Model
	Params []float64
	// CheckpointBytes is the per-transfer image size.
	CheckpointBytes int64
	// Events is the chronological event list.
	Events []LogEvent
}

// Add appends an event stamped with the current wall time and returns
// its sequence id (1-based within this session).
func (l *SessionLog) Add(kind EventKind, value float64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := int64(len(l.Events)) + 1
	l.Events = append(l.Events, LogEvent{Seq: seq, Wall: time.Now(), Kind: kind, Value: value})
	return seq
}

// Summary condenses a session log into the quantities the paper's
// tables aggregate.
type Summary struct {
	// Recoveries and Checkpoints count completed transfers;
	// Interrupted counts transfers cut off by eviction.
	Recoveries, Checkpoints, Interrupted int
	// Heartbeats counts heartbeat messages received.
	Heartbeats int
	// ToptReports counts per-interval schedule recomputations.
	ToptReports int
	// BytesMoved is the total network volume, including the partial
	// bytes of interrupted transfers.
	BytesMoved int64
	// LastHeartbeat is the final cumulative-runtime report, seconds.
	LastHeartbeat float64
	// Retries counts session resumptions after transport failures.
	Retries int
	// TornFrames counts mangled frames and CRC-rejected checkpoints.
	TornFrames int
	// Fallbacks counts intervals scheduled on a fallback T_opt.
	Fallbacks int
	// DeltaCheckpoints counts checkpoints committed as content-addressed
	// deltas (included in Checkpoints; their wire bytes — often a small
	// fraction of the image — are what BytesMoved accumulates for them).
	DeltaCheckpoints int
}

// Summarize computes the Summary of the log.
func (l *SessionLog) Summarize() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s Summary
	for _, e := range l.Events {
		s.add(e.Kind, e.Value, l.CheckpointBytes)
	}
	return s
}

// add books one event into the summary. It is the single definition of
// what each event kind counts for: Summarize folds a whole log through
// it and Manager.record one event at a time into the live counters,
// which is what makes /metrics reconcile exactly with the summed
// per-session summaries. imageBytes is the session's assigned image
// size.
func (s *Summary) add(kind EventKind, value float64, imageBytes int64) {
	switch kind {
	case EvRecoveryDone, EvCheckpointDone:
		// Value is the wire byte count for content-mode transfers;
		// legacy events carry 0 and bill the assigned image size.
		if kind == EvRecoveryDone {
			s.Recoveries++
		} else {
			s.Checkpoints++
		}
		if value > 0 {
			s.BytesMoved += int64(value)
		} else {
			s.BytesMoved += imageBytes
		}
	case EvDeltaCheckpointDone:
		// Delta wire bytes are exact, including a legitimate 0 for a
		// fully deduped image.
		s.Checkpoints++
		s.DeltaCheckpoints++
		s.BytesMoved += int64(value)
	case EvRecoveryInterrupted, EvCheckpointInterrupted:
		s.Interrupted++
		s.BytesMoved += int64(value)
	case EvHeartbeat:
		s.Heartbeats++
		if value > s.LastHeartbeat {
			s.LastHeartbeat = value
		}
	case EvTopt:
		s.ToptReports++
	case EvRetry:
		s.Retries++
	case EvTornFrame:
		s.TornFrames++
	case EvFallback:
		s.Fallbacks++
	}
}
