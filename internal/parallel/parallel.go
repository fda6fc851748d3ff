// Package parallel implements the paper's stated future work (§5.2):
// a model of parallel workloads that captures the interaction between
// colliding checkpoints and checkpoint length.
//
// A parallel job runs one process per machine; all processes share a
// single network path to the checkpoint manager. The link is modeled
// as processor-sharing: k concurrent transfers each progress at 1/k of
// the link capacity, so every collision stretches every in-flight
// transfer. Schedules are computed per process from an availability
// model and a *solo* transfer-cost estimate — exactly what a real
// deployment would measure — so models that checkpoint more often
// (exponential) collide more, lengthening their own transfers beyond
// the cost the schedule assumed. Heavy-tailed models "parallelize the
// overhead by incurring it as lost execution work and not sequential
// network load" (§5.2), which this simulator quantifies.
//
// The simulator is a sharded event-calendar discrete-event engine: the
// worker population is partitioned into per-shard sub-heaps (packed
// 64-byte hot records, inline 4-ary heap nodes) merged through a small
// tournament, and the in-flight transfer calendar degenerates to a
// FIFO ring because same-size images complete in start order on the
// processor-shared link. A serial coordinator processes the merged
// event stream, so results are bit-identical for any shard count and
// any GOMAXPROCS; herds of 10⁶ processes simulate a 24 h horizon in
// seconds (see DESIGN.md §14). Checkpoint intervals come from one
// markov.Schedule built per availability model — memoized across runs
// — and shared by every worker, with jitter applied on top.
package parallel

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// StaggerPolicy coordinates the processes' checkpoint transfers over
// the shared link.
type StaggerPolicy int

const (
	// StaggerNone lets every process transfer the moment its interval
	// ends; simultaneous transfers share the link (the uncoordinated
	// baseline).
	StaggerNone StaggerPolicy = iota
	// StaggerToken serializes transfers with a single token: a process
	// whose interval ends while the link is busy waits (idle) in FIFO
	// order and then transfers at full link rate. No collisions, but
	// queueing delay exposes more uncheckpointed work to failures.
	StaggerToken
	// StaggerJitter adds a per-interval random extension of up to 30%
	// of T to each work interval, desynchronizing the herd without any
	// coordination channel.
	StaggerJitter
)

func (p StaggerPolicy) String() string {
	switch p {
	case StaggerNone:
		return "none"
	case StaggerToken:
		return "token"
	case StaggerJitter:
		return "jitter"
	}
	return fmt.Sprintf("stagger(%d)", int(p))
}

// Config parameterizes one parallel-job simulation.
type Config struct {
	// Workers is the number of job processes (one per machine).
	Workers int
	// Avail is the true availability law of each machine.
	Avail dist.Distribution
	// ScheduleDist is the availability model the schedules are
	// computed from (set equal to Avail for a well-specified model, or
	// to a fitted approximation to study mis-specification).
	ScheduleDist dist.Distribution
	// LinkMBps is the shared link capacity in MB/s.
	LinkMBps float64
	// CheckpointMB is the image size each process transfers.
	CheckpointMB float64
	// Duration is the simulated horizon in seconds.
	Duration float64
	// Stagger selects the checkpoint-coordination policy.
	Stagger StaggerPolicy
	// Seed drives machine lifetimes.
	Seed int64
	// Shards selects how many event-calendar sub-engines the worker
	// population partitions across; 0 (the default) sizes shards
	// automatically from the worker count. Sharding is a data-layout
	// decomposition, not a concurrency knob: a serial coordinator
	// merges the sub-calendars in the one global event order, so the
	// Result (and any trace) is bit-identical for every Shards value —
	// including 1, the unsharded engine — at any GOMAXPROCS
	// (DESIGN.md §14). Negative values are rejected.
	Shards int
	// Trace, when set, records the run's timeline on the *simulation*
	// clock: one "run" span per engine plus per-worker transfer spans
	// and failure events, all on pid TracePid (tid = worker index + 1).
	// Simulated timestamps and single-goroutine emission make the trace
	// byte-identical at any GOMAXPROCS (DESIGN.md §12).
	Trace *obs.Tracer
	// TracePid is the trace lane for this run; a lone Run defaults to
	// 1. RunGrid adds each cell's 1-based flat task index to Base's.
	TracePid uint64
	// Predict configures the oracle fault predictor (DESIGN.md §13).
	// The zero value disables prediction: no predictor RNG stream is
	// created and results are bit-identical to pre-predictor runs. The
	// predictor draws from a private stream derived from Seed via
	// predict.StreamSeed, so enabling it never perturbs machine
	// lifetimes or jitter draws.
	Predict predict.Config
	// Policy selects how workers act on predictor alarms. Ignored
	// (reactive) when Predict is disabled.
	Policy predict.Policy
}

func (cfg Config) validate() error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("parallel: need workers > 0, got %d", cfg.Workers)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("parallel: need shards >= 0 (0 = auto), got %d", cfg.Shards)
	}
	if cfg.Avail == nil || cfg.ScheduleDist == nil {
		return errors.New("parallel: need Avail and ScheduleDist")
	}
	if cfg.LinkMBps <= 0 || cfg.CheckpointMB <= 0 || cfg.Duration <= 0 {
		return errors.New("parallel: LinkMBps, CheckpointMB and Duration must be positive")
	}
	if err := cfg.Predict.Validate(); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	return nil
}

// Result summarizes one simulation.
type Result struct {
	// Efficiency is committed work over total process-time
	// (Workers × Duration).
	Efficiency float64
	// CommittedWork and LostWork are summed over processes (seconds).
	CommittedWork, LostWork float64
	// MBMoved is total network volume (completed + prorated partial
	// transfers).
	MBMoved float64
	// Commits counts completed work+checkpoint cycles; Failures
	// counts evictions.
	Commits, Failures int
	// MeanTransferSec is the mean duration of completed transfers —
	// the solo transfer time is CheckpointMB/LinkMBps; anything above
	// it is collision stretch.
	MeanTransferSec float64
	// SoloTransferSec is the no-contention transfer duration.
	SoloTransferSec float64
	// Collisions counts completed transfers that ever shared the link;
	// MaxConcurrent is the peak number of simultaneous transfers.
	Collisions, MaxConcurrent int
	// QueueWaitSec is total time processes spent waiting for the
	// transfer token (StaggerToken only).
	QueueWaitSec float64
	// ScheduleFallbacks counts work intervals that could not be served
	// from the planned schedule: the model was degenerate at build
	// time (the interval degrades to the solo transfer cost, keeping
	// minimal progress), or a non-memoryless schedule ran past its
	// planned horizon and extended its final interval. Memoryless
	// models plan a single interval by design; extending it is the
	// steady state, not a fallback.
	ScheduleFallbacks int
	// Ledger is the predictor score card (alarms fired, hits, misses,
	// proactive checkpoints, migrations; MigrationMB is a subset of
	// MBMoved). All zero when prediction is disabled.
	predict.Ledger
}

// CollisionStretch reports how much collisions lengthened the average
// transfer: MeanTransferSec / SoloTransferSec.
func (r Result) CollisionStretch() float64 {
	if r.SoloTransferSec <= 0 {
		return 0
	}
	return r.MeanTransferSec / r.SoloTransferSec
}

// schedKey identifies one memoizable schedule build: the model value,
// the solo transfer cost (which sets all three of C, R and L) and the
// planning horizon.
type schedKey struct {
	d       dist.Distribution
	solo    float64
	horizon float64
}

// schedCache memoizes scheduleFor across runs. BuildSchedule is
// deterministic and a Schedule is immutable (and safe for concurrent
// Lookup) once built, so two configs with the same comparable model
// value, costs and horizon can share one plan; a build costs tens of
// milliseconds — more than a whole 1024-worker simulation on the
// sharded engine. Bounded by wholesale reset so a sweep over many
// fitted models cannot grow it without limit.
var schedCache struct {
	sync.Mutex
	m map[schedKey]*markov.Schedule
}

const schedCacheMax = 64

// scheduleFor builds (or recalls) the checkpoint schedule shared by
// every worker of a run: one markov.BuildSchedule per (ScheduleDist,
// Costs, Horizon) triple, with intervals served by Schedule.LookupFrom
// at each worker's actual age. A nil return means the model was
// degenerate at age zero; the engine then degrades every interval to
// the solo transfer cost and counts it in Result.ScheduleFallbacks.
// Distribution values that are not comparable (slice-backed models
// like Hyperexponential) skip the cache, and so do traced runs, whose
// build spans (on the run's lane, tid 0) must not depend on what ran
// earlier in the process.
func scheduleFor(cfg Config) *markov.Schedule {
	solo := cfg.CheckpointMB / cfg.LinkMBps
	cacheable := cfg.Trace == nil && cfg.ScheduleDist != nil && reflect.ValueOf(cfg.ScheduleDist).Comparable()
	var key schedKey
	if cacheable {
		key = schedKey{d: cfg.ScheduleDist, solo: solo, horizon: cfg.Duration}
		schedCache.Lock()
		s, ok := schedCache.m[key]
		schedCache.Unlock()
		if ok {
			return s
		}
	}
	model := markov.Model{
		Avail: cfg.ScheduleDist,
		Costs: markov.Costs{C: solo, R: solo, L: solo},
	}
	// Plan out to the simulated horizon: a worker's age never exceeds
	// the run duration, so extensions only happen when MaxIntervals
	// truncates the plan (counted as fallbacks) or the model is
	// memoryless (periodic by design).
	s, err := model.BuildSchedule(0, markov.ScheduleOptions{Horizon: cfg.Duration, Trace: cfg.Trace, TracePid: cfg.TracePid})
	if err != nil {
		s = nil // degenerate models are memoized too
	}
	if cacheable {
		schedCache.Lock()
		if schedCache.m == nil || len(schedCache.m) >= schedCacheMax {
			schedCache.m = make(map[schedKey]*markov.Schedule)
		}
		schedCache.m[key] = s
		schedCache.Unlock()
	}
	return s
}

// Run simulates the parallel job.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	return runScheduled(cfg, scheduleFor(cfg))
}

// runScheduled runs the sharded engine against a prebuilt schedule
// (which RunGrid shares across every cell of one model column).
func runScheduled(cfg Config, sched *markov.Schedule) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	e := newEngine(cfg, sched)
	e.run()
	return e.finish(), nil
}
