package ckptnet

import "github.com/cycleharvest/ckptsched/internal/obs"

// managerMetrics is the manager's live view of the per-session logs:
// every counter is bumped by Manager.record through the same
// event-kind switch SessionLog.Summarize folds with, so at any quiet
// moment each counter equals the corresponding Summary field summed
// over Manager.Sessions() — the reconciliation invariant the metrics
// test asserts. All fields are nil-safe obs metrics; a manager built
// without a registry carries the zero value and pays one predictable
// branch per event.
type managerMetrics struct {
	// sessions counts distinct session logs created (resumed
	// connections reattach and are counted under retries instead);
	// active tracks connections currently inside the serve loop.
	sessions *obs.Counter
	active   *obs.Gauge

	// Transfer outcomes, mirroring Summary: completed recoveries,
	// committed checkpoints (deltaCheckpoints counts the subset that
	// arrived as content-addressed deltas), and transfers cut off by
	// eviction.
	recoveries, checkpoints, interrupted *obs.Counter
	deltaCheckpoints                     *obs.Counter
	// bytesMoved mirrors Summary.BytesMoved: full images for completed
	// transfers plus the partial bytes of interrupted ones.
	bytesMoved *obs.Counter

	// Protocol traffic and resilience events, mirroring Summary.
	heartbeats, toptReports        *obs.Counter
	retries, tornFrames, fallbacks *obs.Counter

	// hbGap observes the manager-side wall-clock gap between
	// consecutive heartbeats of a session — the live view of heartbeat
	// latency and loss (a dropped heartbeat shows up as a gap in the
	// next-higher bucket).
	hbGap *obs.Histogram
}

// newManagerMetrics registers the manager's metrics on r (DESIGN.md
// §11 lists the names). A nil registry yields all-nil metrics:
// instrumentation off.
func newManagerMetrics(r *obs.Registry) managerMetrics {
	return managerMetrics{
		sessions: r.Counter("ckptnet_sessions_total",
			"Distinct process sessions created (resumptions reattach, counted as retries)."),
		active: r.Gauge("ckptnet_active_sessions",
			"Connections currently inside the manager's serve loop."),
		recoveries: r.Counter("ckptnet_recoveries_total",
			"Recovery images streamed to completion."),
		checkpoints: r.Counter("ckptnet_checkpoints_total",
			"Checkpoint images received, CRC-verified, and committed."),
		interrupted: r.Counter("ckptnet_interrupted_transfers_total",
			"Recovery or checkpoint transfers cut off by eviction."),
		deltaCheckpoints: r.Counter("ckptnet_delta_checkpoints_total",
			"Checkpoints committed as content-addressed deltas."),
		bytesMoved: r.Counter("ckptnet_bytes_moved_total",
			"Total network volume in bytes, including partial interrupted transfers."),
		heartbeats: r.Counter("ckptnet_heartbeats_total",
			"Heartbeat frames received."),
		toptReports: r.Counter("ckptnet_topt_reports_total",
			"Per-interval T_opt reports received."),
		retries: r.Counter("ckptnet_retries_total",
			"Sessions resumed after a transport failure."),
		tornFrames: r.Counter("ckptnet_torn_frames_total",
			"Mangled frames: corrupt payloads, lost alignment, CRC-rejected checkpoints."),
		fallbacks: r.Counter("ckptnet_fallbacks_total",
			"Intervals a process scheduled on a fallback T_opt."),
		hbGap: r.Histogram("ckptnet_heartbeat_gap_seconds",
			"Wall-clock gap between consecutive heartbeats of a session.", obs.DefBuckets),
	}
}

// record appends the event to the session log, bumps the manager
// counters by what Summary.add books for it — the one definition
// SessionLog.Summarize shares — and returns the event's sequence id (for
// trace correlation).
func (m *Manager) record(l *SessionLog, kind EventKind, value float64) int64 {
	seq := l.Add(kind, value)
	var d Summary
	d.add(kind, value, l.CheckpointBytes)
	mm := &m.metrics
	bump := func(c *obs.Counter, n int64) {
		if n != 0 { // most kinds touch one or two counters; skip the idle atomics
			c.Add(uint64(n))
		}
	}
	bump(mm.recoveries, int64(d.Recoveries))
	bump(mm.checkpoints, int64(d.Checkpoints))
	bump(mm.deltaCheckpoints, int64(d.DeltaCheckpoints))
	bump(mm.interrupted, int64(d.Interrupted))
	bump(mm.bytesMoved, d.BytesMoved)
	bump(mm.heartbeats, int64(d.Heartbeats))
	bump(mm.toptReports, int64(d.ToptReports))
	bump(mm.retries, int64(d.Retries))
	bump(mm.tornFrames, int64(d.TornFrames))
	bump(mm.fallbacks, int64(d.Fallbacks))
	return seq
}
