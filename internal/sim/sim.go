// Package sim is the trace-driven discrete-event simulator behind the
// paper's §5.1 evaluation: it replays the recovery–compute–checkpoint
// cycle of a long-running job against a machine's recorded
// availability durations and accounts both time efficiency (Figure 3 /
// Table 1) and network load (Figure 4 / Table 3).
//
// Semantics. Each availability duration is one uninterrupted period of
// machine uptime; the job occupies the machine for the entire period
// (the paper simulates a job that "begins before the first measurement
// … and continues to run after the last"). A period begins with a
// recovery of R seconds (the job restarts from its last stable
// checkpoint), then alternates work intervals — whose lengths come
// from the checkpoint schedule, indexed by machine age — with
// checkpoints of C seconds. Work only becomes useful when the
// checkpoint that follows it completes; a failure mid-interval or
// mid-checkpoint loses the interval. Failures can therefore strike
// during recovery and checkpointing, matching the Markov model's
// assumptions.
package sim

import (
	"errors"
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// Planner supplies the work-interval length to use when the machine
// has the given age (seconds since it last came up). ok is false when
// the planner cannot produce an interval. *markov.Schedule satisfies
// Planner.
type Planner interface {
	IntervalAt(age float64) (T float64, ok bool)
}

// PlannerFunc adapts a function to the Planner interface.
type PlannerFunc func(age float64) (float64, bool)

// IntervalAt implements Planner.
func (f PlannerFunc) IntervalAt(age float64) (float64, bool) { return f(age) }

// FixedInterval returns a Planner that always uses interval T — the
// classical periodic baseline.
func FixedInterval(T float64) Planner {
	return PlannerFunc(func(float64) (float64, bool) { return T, true })
}

// Config parameterizes one simulation run.
type Config struct {
	// Costs gives the checkpoint and recovery durations (seconds). L
	// is unused by the simulator (it is a property of the analytic
	// model); the simulator's own dynamics capture staleness directly.
	Costs markov.Costs
	// CheckpointMB is the size of one checkpoint or recovery image in
	// megabytes (the paper uses 500).
	CheckpointMB float64
	// Trace, when set, records one "period" span per availability
	// duration plus "transfer.recovery"/"transfer.checkpoint" child
	// spans and "evicted" instants, all timestamped on the run's
	// virtual clock (cumulative seconds across periods). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
	// TracePid is the trace lane (Chrome trace pid) the run emits on;
	// 0 means lane 1. Concurrent runs over distinct lanes export
	// deterministically.
	TracePid uint64
	// History, when set, is scraped on the run's virtual clock: sim_*
	// metrics register on History.Registry() and one window closes at
	// each multiple of the history's window width in simulated seconds
	// (plus a final partial window at the end of the trace). The run is
	// single-threaded, so the exported series is byte-identical at any
	// GOMAXPROCS. Nil disables windowing at zero cost.
	History *obs.History
}

// Result accumulates the outcome of a simulated job.
type Result struct {
	// TotalTime is the total machine-occupied time (sum of the
	// availability durations), seconds.
	TotalTime float64
	// UsefulWork is committed work time, seconds.
	UsefulWork float64
	// LostWork is work performed but lost to failures, seconds.
	LostWork float64
	// RecoveryTime is time spent in recovery transfers (including
	// failed ones), seconds.
	RecoveryTime float64
	// CheckpointTime is time spent in checkpoint transfers (including
	// failed ones), seconds.
	CheckpointTime float64
	// MBTransferred is the network load in megabytes (recoveries +
	// checkpoints; an interrupted transfer is charged the fraction that
	// crossed the network before the eviction).
	MBTransferred float64
	// Commits counts completed work-interval+checkpoint cycles.
	Commits int
	// Recoveries counts successful recoveries; FailedRecoveries
	// counts availability periods too short to finish recovery.
	Recoveries, FailedRecoveries int
	// FailedCheckpoints counts checkpoints interrupted by eviction;
	// FailedIntervals counts work intervals interrupted by eviction.
	FailedCheckpoints, FailedIntervals int
}

// Efficiency returns UsefulWork/TotalTime, the paper's machine
// utilization metric.
func (r Result) Efficiency() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return r.UsefulWork / r.TotalTime
}

// MBPerHour returns the average network load in megabytes per hour of
// occupied machine time.
func (r Result) MBPerHour() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return r.MBTransferred / (r.TotalTime / 3600)
}

// ErrNoAvailabilities is returned when Run is given an empty trace.
var ErrNoAvailabilities = errors.New("sim: no availability durations")

// proratedMB is the network charge for a transfer of size mb evicted
// after elapsed of its want seconds: a 500 MB checkpoint killed halfway
// moved ~250 MB through the network.
func proratedMB(mb, elapsed, want float64) float64 {
	if want <= 0 {
		return 0
	}
	return mb * elapsed / want
}

// Run simulates the job over the given availability durations using
// the planner's intervals.
func Run(avail []float64, planner Planner, cfg Config) (Result, error) {
	if len(avail) == 0 {
		return Result{}, ErrNoAvailabilities
	}
	if planner == nil {
		return Result{}, errors.New("sim: nil planner")
	}
	if cfg.CheckpointMB < 0 {
		return Result{}, fmt.Errorf("sim: negative checkpoint size %g", cfg.CheckpointMB)
	}
	C, R := cfg.Costs.C, cfg.Costs.R
	tr, pid := cfg.Trace, cfg.TracePid
	if tr != nil && pid == 0 {
		pid = 1
	}
	so := newSimObs(cfg.History)
	var res Result
	elapsed := 0.0
	for idx, a := range avail {
		if a < 0 {
			return Result{}, fmt.Errorf("sim: negative availability %g at index %d", a, idx)
		}
		res.TotalTime += a
		start := elapsed
		elapsed += a
		now := start
		if tr != nil {
			tr.SpanAt(pid, 1, "period", start, a, obs.AttrInt("index", int64(idx)))
		}
		age := 0.0
		remaining := a

		if remaining < R {
			// Evicted during recovery.
			charged := proratedMB(cfg.CheckpointMB, remaining, R)
			res.RecoveryTime += remaining
			res.FailedRecoveries++
			res.MBTransferred += charged
			so.advanceBefore(elapsed)
			so.addMB(charged)
			so.evict()
			if tr != nil {
				tr.SpanAt(pid, 1, "transfer.recovery", now, remaining,
					obs.AttrStr("outcome", "interrupted"), obs.AttrFloat("mb", charged))
				tr.EventAt(pid, 1, "evicted", start+a)
			}
			so.periodEnd(elapsed, &res)
			continue
		}
		res.RecoveryTime += R
		res.Recoveries++
		res.MBTransferred += cfg.CheckpointMB
		so.advanceBefore(now + R)
		so.addMB(cfg.CheckpointMB)
		if tr != nil {
			tr.SpanAt(pid, 1, "transfer.recovery", now, R,
				obs.AttrStr("outcome", "done"), obs.AttrFloat("mb", cfg.CheckpointMB))
		}
		now += R
		remaining -= R
		age += R

		for remaining > 0 {
			T, ok := planner.IntervalAt(age)
			if !ok || T <= 0 {
				return Result{}, fmt.Errorf("sim: planner returned invalid interval %g at age %g", T, age)
			}
			switch {
			case remaining >= T+C:
				// Interval and checkpoint both complete.
				res.UsefulWork += T
				res.CheckpointTime += C
				res.MBTransferred += cfg.CheckpointMB
				res.Commits++
				so.advanceBefore(now + T + C)
				so.addMB(cfg.CheckpointMB)
				so.commit()
				if tr != nil {
					tr.SpanAt(pid, 1, "transfer.checkpoint", now+T, C,
						obs.AttrStr("outcome", "done"),
						obs.AttrFloat("mb", cfg.CheckpointMB),
						obs.AttrFloat("t_interval", T))
				}
				now += T + C
				remaining -= T + C
				age += T + C
			case remaining > T:
				// Evicted mid-checkpoint: the interval's work is lost
				// and the partial transfer still crossed the network.
				partial := remaining - T
				charged := proratedMB(cfg.CheckpointMB, partial, C)
				res.LostWork += T
				res.CheckpointTime += partial
				res.FailedCheckpoints++
				res.MBTransferred += charged
				so.advanceBefore(elapsed)
				so.addMB(charged)
				so.evict()
				if tr != nil {
					tr.SpanAt(pid, 1, "transfer.checkpoint", now+T, partial,
						obs.AttrStr("outcome", "interrupted"), obs.AttrFloat("mb", charged))
					tr.EventAt(pid, 1, "evicted", start+a)
				}
				remaining = 0
			default:
				// Evicted mid-computation.
				res.LostWork += remaining
				res.FailedIntervals++
				so.advanceBefore(elapsed)
				so.evict()
				if tr != nil {
					tr.EventAt(pid, 1, "evicted", start+a)
				}
				remaining = 0
			}
		}
		so.periodEnd(elapsed, &res)
	}
	so.finish(elapsed)
	return res, nil
}
