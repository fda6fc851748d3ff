// Package live reproduces the paper's §5.2 "live Condor" experiment
// under virtual time: instrumented test processes are repeatedly
// submitted to a (simulated) Condor pool, each one measuring its
// recovery and checkpoint transfer times over a network link, using
// the measured cost to recompute T_opt at every interval, and dying
// without warning when the hosting machine's owner returns.
//
// Unlike the trace-driven simulator (internal/sim), transfer costs
// here are variable (drawn from the link model per transfer, exactly
// as real shared networks behave), schedules are recomputed from
// measured costs, and the per-machine model parameters come from the
// same 18-month trace archive the occupancy monitors collected —
// matching the paper's experimental protocol, including its
// right-censoring artifacts (§5.3).
//
// # Execution model
//
// A campaign runs in two phases. The allocation pre-pass plays the
// pool's discrete-event loop with "ghost" jobs — placeholders that
// occupy machines exactly as the real test processes would but do no
// session work — to learn every sample's placement: (machine, start
// time, T_elapsed, eviction time). This is exact, not approximate: the
// pool draws its RNG only on machine idle/busy transitions, an idle
// period's length is fixed the moment it begins, and a Vanilla job
// holds its machine from placement to owner reclaim, so the machine
// timeline and matchmaking sequence are independent of anything a job
// does between those two instants.
//
// Between the phases the distinct (machine, model) pairs the placements
// need are fitted on the worker pool, into the campaign's Fits; the
// event loop itself is serial and fits nothing.
//
// The replay phase then simulates each sample's session — the
// recover/work/checkpoint state machine — on a private virtual clock
// with a private RNG derived from (campaign seed, sample index). The
// sessions share no mutable state, so they run on a bounded worker
// pool; because each task's RNG stream and allocation are fixed ahead
// of time and results land in a pre-sized slice by index, the campaign
// is bit-identical at any GOMAXPROCS and any worker count.
package live

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/condor"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/forecast"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// CampaignConfig drives one live-experiment campaign (one manager
// placement → one table).
type CampaignConfig struct {
	// Machines is the pool.
	Machines []condor.Machine
	// History is the per-machine availability archive used to fit the
	// model a process is told to use (the paper's previous 18 months
	// of monitor data).
	History *trace.Set
	// Link models the path between pool machines and the checkpoint
	// manager (campus vs wide-area).
	Link ckptnet.Link
	// CheckpointMB is the image size (the paper uses 500).
	CheckpointMB float64
	// SamplesPerModel is how many test-process runs to collect per
	// model family.
	SamplesPerModel int
	// RequiresMB is the job's memory requirement. Default 512 (the
	// paper's test application holds a 500 MB image).
	RequiresMB int
	// HeartbeatSec is the heartbeat period. Default 10.
	HeartbeatSec float64
	// Concurrency keeps this many test processes in flight at once
	// (default 1, the sequential protocol). The paper's overlapping
	// submissions correspond to values above 1.
	Concurrency int
	// UseForecast schedules with NWS-style network-performance
	// predictions (the system the paper describes: availability model
	// + predicted transfer cost) instead of the last measured
	// transfer time (the simpler estimator the paper's live test
	// process uses). The predictor learns from every completed
	// transfer across the whole campaign, since all processes share
	// one path to the manager — which is why forecast campaigns replay
	// their sessions in submission order rather than in parallel.
	UseForecast bool
	// Seed makes the campaign deterministic.
	Seed int64
	// Tracer, when set, records one "session" span per sample (pid =
	// TracePidBase + sample index + 1) with per-interval "topt" events,
	// transfer child spans, and retry/fallback/evicted events — all
	// timestamped on the campaign's virtual clock (allocation start +
	// session time), so the export is byte-identical at any GOMAXPROCS
	// (DESIGN.md §12).
	Tracer *obs.Tracer
	// TracePidBase offsets this campaign's trace lanes so several
	// campaigns can share one tracer without colliding pids.
	TracePidBase uint64
	// WireBins, when positive, has RunCampaign record every byte that
	// crosses the link, binned by virtual campaign time (allocation
	// start + session time) — the network-overhead-vs-time series the
	// paper plots. The allocation pre-pass fixes the campaign's virtual
	// span before any session runs, so the bin width is span/WireBins.
	// ByteSeries bins are commuting integer atomics, so the series is
	// deterministic even when sessions replay in parallel. The filled
	// series comes back on Campaign.Wire.
	WireBins int
	wire     *obs.ByteSeries // built by RunCampaign from WireBins
	// Delta configures content-addressed delta checkpointing (the
	// ckptnet image store, DESIGN.md §16): after the first full image
	// lands at the manager, each checkpoint ships only the chunks the
	// interval's work dirtied. The zero value disables delta entirely
	// and leaves the campaign bit-identical to earlier builds.
	Delta DeltaPolicy
	// Fits, when set, is the fit memo this campaign reads and fills,
	// so campaigns and validations over one History fit each (machine,
	// model) pair once between them; it must have been built by NewFits
	// from this History. It shares work, not behaviour: a campaign is
	// identical with it, without it (nil: RunCampaign builds a private
	// one), and whatever other campaigns used it before or meanwhile.
	Fits *Fits
	// Predict configures the oracle fault predictor (DESIGN.md §13):
	// each session draws its alarms from a private stream derived from
	// (Seed, sample index) via predict.StreamSeed, so enabling
	// prediction never perturbs the session's transfer or chaos draws.
	// The zero value disables prediction entirely.
	Predict predict.Config
	// Policy selects how sessions act on predictor alarms. Ignored
	// (reactive) when Predict is disabled.
	Policy predict.Policy
}

// DeltaPolicy configures delta checkpointing for a campaign. The
// dirtying law matches internal/imagestore: each chunk is touched by
// an independent Poisson process, so after T seconds of uncommitted
// work a fraction 1−exp(−DirtyRate·T) of the image is dirty. Wire
// volume per checkpoint is the dirty chunk count rounded to whole
// chunks — a deterministic function of the session's work history, so
// enabling delta adds no RNG draws and preserves the campaign's
// bit-identical replay contract.
type DeltaPolicy struct {
	// Enabled turns delta checkpointing on.
	Enabled bool
	// DirtyRate is the per-chunk dirtying rate in 1/seconds (default
	// 0.002: a chunk's expected untouched lifetime is ~8 minutes).
	DirtyRate float64
	// VariableCost schedules with the interval-dependent cost C(T)
	// the link bills a delta checkpoint (session.deltaCost), instead of
	// the constant last-measured cost. Requires Enabled.
	VariableCost bool
}

func (c *CampaignConfig) setDefaults() {
	if c.Delta.Enabled {
		if c.Delta.DirtyRate <= 0 {
			c.Delta.DirtyRate = 0.002
		}
	}
	if c.RequiresMB <= 0 {
		c.RequiresMB = 512
	}
	if c.HeartbeatSec <= 0 {
		c.HeartbeatSec = 10
	}
	if c.CheckpointMB <= 0 {
		c.CheckpointMB = 500
	}
}

// Sample is one test-process run, the unit the paper's Tables 4 and 5
// aggregate.
type Sample struct {
	// Model is the availability model the process scheduled with.
	Model fit.Model
	// Machine hosted the run.
	Machine string
	// TElapsed is the machine age at process start.
	TElapsed float64
	// SessionSec is the total occupied time (start to eviction).
	SessionSec float64
	// CommittedWork is work time whose checkpoint completed.
	CommittedWork float64
	// LostWork is work time lost to the eviction.
	LostWork float64
	// TransferSec is total time in recovery + checkpoint transfers.
	TransferSec float64
	// MBMoved is the network volume, interrupted transfers prorated.
	MBMoved float64
	// Intervals counts T_opt computations; Checkpoints counts
	// completed checkpoint transfers; Heartbeats counts heartbeat
	// messages.
	Intervals, Checkpoints, Heartbeats int
	// DeltaCheckpoints counts completed checkpoint transfers that
	// shipped as deltas (strictly fewer bytes than the full image);
	// zero unless the campaign enabled DeltaPolicy.
	DeltaCheckpoints int
	// MeasuredCs are the per-transfer measured costs (recovery first).
	MeasuredCs []float64
	// Retries counts transfer attempts re-tried after a torn transfer
	// (chaos campaigns only).
	Retries int
	// Torn counts transfer attempts that died partway.
	Torn int
	// Fallbacks counts intervals scheduled without a fresh T_opt — the
	// manager was unreachable or every transfer retry failed, so the
	// process degraded to its last assigned schedule (or the
	// conservative exponential interval).
	Fallbacks int
	// BackoffSec is total virtual time spent waiting between transfer
	// retries.
	BackoffSec float64
	// Ledger is the session's predictor score card (alarms fired, hit or
	// missed eviction, proactive checkpoints, migrations; MigrationMB
	// is a subset of MBMoved). All zero without a predictor.
	predict.Ledger
	// Migrated reports that the session ended by migrating off the
	// machine before the owner's reclaim rather than by eviction.
	Migrated bool
}

// Efficiency is the run's committed-work fraction.
func (s Sample) Efficiency() float64 {
	if s.SessionSec <= 0 {
		return 0
	}
	return s.CommittedWork / s.SessionSec
}

// Campaign is the outcome of RunCampaign.
type Campaign struct {
	// Samples holds every run, in submission order.
	Samples []Sample
	// LinkName echoes the link profile.
	LinkName string
	// Wire is the bytes-on-wire time series (nil unless the config set
	// WireBins).
	Wire *obs.ByteSeries

	// tracer and pidBase echo the config's, so Validate's schedule
	// builds trace on the lanes of the sessions they replay.
	tracer  *obs.Tracer
	pidBase uint64
}

// ByModel groups the samples by model family.
func (c *Campaign) ByModel() map[fit.Model][]Sample {
	out := make(map[fit.Model][]Sample)
	for _, s := range c.Samples {
		out[s.Model] = append(out[s.Model], s)
	}
	return out
}

// ChaosTotals sums the resilience counters across every sample — the
// campaign-level retry/torn/fallback totals the chaos reports print.
// All zero for a campaign run over a fault-free link.
func (c *Campaign) ChaosTotals() (retries, torn, fallbacks int, backoffSec float64) {
	for _, s := range c.Samples {
		retries += s.Retries
		torn += s.Torn
		fallbacks += s.Fallbacks
		backoffSec += s.BackoffSec
	}
	return
}

// PredictionTotals sums the sessions' predictor ledgers — the
// campaign-level score card the chaos summary prints. All zero for a
// campaign run without a predictor.
func (c *Campaign) PredictionTotals() predict.Ledger {
	var total predict.Ledger
	for _, s := range c.Samples {
		total.Add(s.Ledger)
	}
	return total
}

// modelFor returns the model family assigned to sample idx: submissions
// rotate across the four families exactly as the paper alternates its
// test processes.
func modelFor(idx int) fit.Model {
	return fit.Models[idx%len(fit.Models)]
}

// taskSeed derives sample idx's private RNG seed from the campaign
// seed via a splitmix64 round, so per-sample streams are decorrelated
// and independent of execution order. This derivation is part of the
// campaign's determinism contract: the sequence of random draws a
// session sees depends only on (Seed, idx), never on which worker ran
// it or when.
func taskSeed(seed int64, idx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RunCampaign executes the live experiment: SamplesPerModel runs for
// each of the four models, rotating model assignment across
// submissions exactly as the paper alternates its test processes.
// With Concurrency > 1, that many test processes are kept in flight
// simultaneously, contending for pool machines the way the paper's
// overlapping submissions did (its per-table total time far exceeds
// the 2-day experimental window).
//
// The campaign is deterministic for a fixed config: the allocation
// pre-pass fixes every sample's placement, and each session replays on
// a private RNG seeded from (Seed, sample index), so the result is
// bit-identical regardless of GOMAXPROCS or scheduling order.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) {
	cfg.setDefaults()
	if len(cfg.Machines) == 0 {
		return nil, errors.New("live: no machines")
	}
	if cfg.History == nil || len(cfg.History.Traces) == 0 {
		return nil, errors.New("live: no availability history")
	}
	if cfg.Link == nil {
		return nil, errors.New("live: no link model")
	}
	if cfg.SamplesPerModel <= 0 {
		return nil, errors.New("live: SamplesPerModel must be positive")
	}
	if err := cfg.Predict.Validate(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if cfg.Delta.VariableCost && !cfg.Delta.Enabled {
		return nil, errors.New("live: Delta.VariableCost requires Delta.Enabled")
	}

	fits := cfg.Fits
	if fits == nil {
		var err error
		if fits, err = NewFits(cfg.History); err != nil {
			return nil, err
		}
	} else if fits.history != cfg.History {
		return nil, errors.New("live: Fits was built from a different history")
	}

	// A fit that fails aborts the campaign at the first placement that
	// needs it — before anything that went wrong in the event loop
	// after that placement.
	allocs, planErr := planAllocations(cfg)
	if err := fits.fitPlaced(allocs); err != nil {
		return nil, err
	}
	if planErr != nil {
		return nil, planErr
	}
	if cfg.WireBins > 0 {
		span := 0.0
		for _, al := range allocs {
			if al.evictAt > span {
				span = al.evictAt
			}
		}
		if span > 0 {
			cfg.wire = obs.NewByteSeries(span/float64(cfg.WireBins), cfg.WireBins)
		}
	}

	total := len(allocs)
	samples := make([]Sample, total)
	// Over a ChaosLink sessions run in resilient mode: transfer attempts
	// may tear and are retried with exponential backoff, and a schedule
	// recomputation may find the manager unreachable.
	var chaos *ckptnet.ChaosLink
	if cl, ok := cfg.Link.(ckptnet.ChaosLink); ok {
		chaos = &cl
	}

	if cfg.UseForecast {
		// The bandwidth predictor learns from every completed transfer
		// across the campaign, coupling the sessions; replay them
		// sequentially in submission order so the learning sequence is
		// well-defined (and still deterministic).
		predictor := forecast.NewBandwidthPredictor()
		for idx := range allocs {
			rng := rand.New(rand.NewSource(taskSeed(cfg.Seed, idx)))
			s, err := runSession(cfg, chaos, fits, predictor, idx, allocs[idx], rng)
			if err != nil {
				return nil, err
			}
			samples[idx] = s
		}
		return &Campaign{LinkName: cfg.Link.Name(), Samples: samples, Wire: cfg.wire, tracer: cfg.Tracer, pidBase: cfg.TracePidBase}, nil
	}

	// Sessions are independent: fan out over a bounded worker pool.
	errs := make([]error, total)
	forEach(total, func(idx int) {
		rng := rand.New(rand.NewSource(taskSeed(cfg.Seed, idx)))
		samples[idx], errs[idx] = runSession(cfg, chaos, fits, nil, idx, allocs[idx], rng)
	})
	// Resolve a failure deterministically: the smallest failing index
	// wins, independent of worker interleaving.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Campaign{LinkName: cfg.Link.Name(), Samples: samples, Wire: cfg.wire, tracer: cfg.Tracer, pidBase: cfg.TracePidBase}, nil
}

// allocation is one sample's placement, learned by the pre-pass: which
// machine hosted it, when it started, how long the machine had been
// idle, and when the owner reclaimed it.
type allocation struct {
	machine condor.Machine
	start   float64
	tel     float64
	evictAt float64
}

// forEach calls fn(0) … fn(n-1) from min(GOMAXPROCS, n) workers and
// returns when every call has. fn must be safe to run concurrently
// with itself and must keep what it produces apart by index.
func forEach(n int, fn func(i int)) {
	idxc := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				fn(i)
			}
		}()
	}
	for i := range n {
		idxc <- i
	}
	close(idxc)
	wg.Wait()
}

// planAllocations plays the pool's event loop with ghost jobs to learn
// every sample's (machine, start, T_elapsed, eviction) tuple. Ghosts
// reproduce the real submission protocol exactly — Concurrency jobs in
// flight, each eviction submitting the next pending sample from the
// event loop — and occupy machines from placement to reclaim, which is
// all the pool ever observes of a job. The loop is serial and only
// records; fitPlaced fits what the placements need off the loop. The
// ghosts all ask for the same memory and the pool's queue is FIFO, so
// samples are placed in index order at any Concurrency, and on an
// error the returned slice is the prefix that was placed before it.
func planAllocations(cfg CampaignConfig) ([]allocation, error) {
	pool, err := condor.NewPool(cfg.Machines, cfg.Seed)
	if err != nil {
		return nil, err
	}
	total := cfg.SamplesPerModel * len(fit.Models)
	allocs := make([]allocation, total)
	clock := pool.Clock()

	var (
		nextIdx   int
		placed    int
		completed int
		failErr   error
	)
	var submitNext func() error
	ghost := func(idx int) *condor.Job {
		job := &condor.Job{
			Name:       fmt.Sprintf("testproc-%04d-%s", idx, modelFor(idx)),
			RequiresMB: cfg.RequiresMB,
		}
		job.OnStart = func(a condor.Alloc) {
			allocs[idx] = allocation{machine: a.Machine, start: a.Start, tel: a.TElapsed}
			placed++
		}
		job.OnEvict = func(at float64) {
			allocs[idx].evictAt = at
			completed++
			// Submit the successor from the event loop (pool methods
			// must not be called synchronously from job hooks).
			clock.Schedule(0, func() {
				if err := submitNext(); err != nil && failErr == nil {
					failErr = err
				}
			})
		}
		return job
	}
	submitNext = func() error {
		if nextIdx >= total {
			return nil
		}
		idx := nextIdx
		nextIdx++
		return pool.Submit(ghost(idx))
	}

	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 1
	}
	if conc > total {
		conc = total
	}
	for range conc {
		if err := submitNext(); err != nil {
			return allocs[:placed], err
		}
	}
	for completed < total && failErr == nil {
		if !clock.Step() {
			return allocs[:placed], errors.New("live: pool ran out of events before the campaign completed")
		}
	}
	return allocs[:placed], failErr
}

// session is one test process between placement and the owner's
// reclaim: the paper's loop — recover, compute T_opt from the measured
// transfer, work while heart-beating, checkpoint, re-measure, repeat —
// on a private virtual clock starting at 0 (session times are relative;
// nothing in a session depends on absolute pool time). It is the unit
// of replay-phase parallelism: everything it touches is private except
// the concurrency-safe fit memo and, for forecast campaigns, the shared
// bandwidth predictor (in which case sessions run sequentially).
type session struct {
	Sample // the run's score card, filled as the session goes

	cfg      CampaignConfig
	chaos    *ckptnet.ChaosLink           // nil over a fault-free link
	fits     *Fits                        // for the conservative fallback interval
	forecast *forecast.BandwidthPredictor // nil unless cfg.UseForecast
	rng      *rand.Rand                   // transfer and chaos draws, in session-time order
	avail    dist.Distribution            // the fitted law the process schedules with

	// Trace lane: one pid per sample, the session on tid 1 and the
	// predictor on tid 2, timestamps on the campaign's virtual axis
	// (allocation start + session time).
	pid   uint64
	start float64

	now       float64 // session clock; only wait moves it
	reclaimAt float64 // when the owner returns
	bytes     int64   // full image size

	measuredC   float64 // last measured (or, after an abandoned transfer, estimated) transfer time
	topt        float64
	pendingWork float64 // work computed but not yet committed by a checkpoint

	// Delta checkpointing: once a full image has landed (hasBase),
	// checkpoints ship only dirty chunks. fullSec is that image's
	// transfer time, the bandwidth anchor of the variable-cost curve.
	hasBase bool
	fullSec float64

	// The oracle predictor's alarms for this session, drawn up front
	// from a private stream; alarms[:alarmIdx] have fired.
	alarms   []predict.Event
	alarmIdx int
	predTrue bool // a true alarm has fired
}

// How a wait or a transfer ended.
type ending int

const (
	ran       ending = iota // the phase ran its length; the transfer committed
	alarmed                 // wait only: a predictor alarm cut the work short
	abandoned               // transfer only: every attempt tore
	evicted                 // the owner reclaimed the machine
)

// runSession replays sample idx's session over its allocation and
// returns the score card. Over a ChaosLink the session gains two
// behaviours: torn transfers are retried with exponential backoff, and
// manager outages degrade the schedule to the last assigned interval
// instead of aborting.
func runSession(cfg CampaignConfig, chaos *ckptnet.ChaosLink, fits *Fits, predictor *forecast.BandwidthPredictor, idx int, al allocation, rng *rand.Rand) (Sample, error) {
	model := modelFor(idx)
	d, err := fits.fitFor(al.machine.Name, model)
	if err != nil {
		// Unreachable in practice: fitPlaced checked this exact fit and
		// the cache memoizes it.
		return Sample{}, fmt.Errorf("live: sample %d (%v): %w", idx, model, err)
	}
	s := &session{
		Sample:    Sample{Model: model, Machine: al.machine.Name, TElapsed: al.tel},
		cfg:       cfg,
		chaos:     chaos,
		fits:      fits,
		forecast:  predictor,
		rng:       rng,
		avail:     d,
		pid:       cfg.TracePidBase + uint64(idx) + 1,
		start:     al.start,
		reclaimAt: al.evictAt - al.start,
		bytes:     int64(cfg.CheckpointMB * ckptnet.MB),
	}
	// The alarms come from a private stream derived from (Seed, idx), so
	// the session's transfer and chaos draws on rng are untouched whether
	// or not prediction is on.
	if cfg.Predict.Enabled() {
		pred, _ := predict.New(cfg.Predict) // RunCampaign vetted the config
		prng := rand.New(rand.NewSource(predict.StreamSeed(taskSeed(cfg.Seed, idx))))
		s.alarms = pred.PeriodEvents(s.reclaimAt, prng)
	}

	s.run()

	tr := cfg.Tracer
	s.SessionSec = s.now
	if !s.Migrated {
		tr.EventAt(s.pid, 1, "evicted", s.stamp())
	}
	if cfg.Predict.Enabled() {
		if !s.Migrated {
			// Settle the predictor's books: alarms due at the eviction
			// instant itself still fired, and the reclaim is a hit or a
			// miss depending on whether a true alarm preceded it.
			s.Evict(tr, s.pid, 2, s.start, s.stamp(), s.alarms[s.alarmIdx:], s.predTrue)
		}
	}
	tr.SpanAt(s.pid, 1, "session", s.start, s.SessionSec,
		obs.AttrStr("model", model.String()),
		obs.AttrStr("machine", s.Machine),
		obs.AttrFloat("t_elapsed", s.TElapsed),
		obs.AttrFloat("t_opt", s.topt),
		obs.AttrFloat("efficiency", s.Efficiency()),
		obs.AttrBool("migrated", s.Migrated),
		obs.AttrInt("intervals", int64(s.Intervals)))
	return s.Sample, nil
}

// run is the test process: it returns when the owner reclaims the
// machine (wherever that lands, the phase it cut short has billed what
// was lost) or when a migration has carried the process off it.
func (s *session) run() {
	// Recovery. If it is abandoned the process starts computing from
	// scratch.
	if s.transfer("transfer.recovery", false) == evicted {
		return
	}
	for {
		s.decide()

		// Work, heart-beating every HeartbeatSec. The interval's work
		// stays pending until a checkpoint transfer commits it.
		t0 := s.now
		worked := s.topt
		cut := s.wait(s.topt, true)
		if cut != ran {
			worked = s.now - t0
		}
		s.Heartbeats += int(worked / s.cfg.HeartbeatSec)
		if cut == evicted {
			s.LostWork += s.pendingWork + worked
			return
		}
		s.pendingWork += worked

		// Checkpoint: the scheduled one that ends the interval or, after
		// an alarm, the proactive one — a migration under PolicyMigrate.
		name := "transfer.checkpoint"
		migrating := cut == alarmed && s.cfg.Policy == predict.PolicyMigrate
		if migrating {
			name = "transfer.migrate"
		}
		switch s.transfer(name, true) {
		case evicted:
			return
		case abandoned:
			// The process stays put and keeps computing on the degraded
			// schedule; the work stays pending until the next checkpoint
			// goes through.
			s.Fallbacks++
			s.cfg.Tracer.EventAt(s.pid, 1, "fallback", s.stamp(),
				obs.AttrStr("cause", "retries-exhausted"))
			continue
		}
		// Committed — including any work a previously abandoned
		// checkpoint left uncommitted.
		s.CommittedWork += s.pendingWork
		s.pendingWork = 0
		if migrating {
			// The image is at the destination: the process leaves the
			// doomed machine and the session ends here.
			s.AddMigration(s.cfg.CheckpointMB)
			s.Migrated = true
			return
		}
		if cut == alarmed {
			s.ProactiveCheckpoints++
		}
		s.Checkpoints++
	}
}

// wait moves the session clock forward by dur, or to whatever happens
// first — the only place time passes, so the only place the owner's
// reclaim and the predictor's alarms are noticed. At equal instants
// the reclaim outranks an alarm (it is left for Ledger.Evict to settle)
// and an alarm outranks the end of the phase. Every alarm is booked
// when it fires, but only an interruptible wait — a work interval
// under a policy that acts on alarms — ends on one: a process
// mid-transfer or mid-backoff has nothing new to save, and it cannot
// tell true alarms from false ones (that is what precision costs).
func (s *session) wait(dur float64, interruptible bool) ending {
	until := s.now + dur
	for s.alarmIdx < len(s.alarms) {
		ev := s.alarms[s.alarmIdx]
		if ev.At > until || ev.At >= s.reclaimAt {
			break
		}
		s.alarmIdx++
		if s.Alarm(s.cfg.Tracer, s.pid, 2, s.start+ev.At, ev) {
			s.predTrue = true
		}
		if interruptible && s.cfg.Policy != predict.PolicyReactive {
			s.now = ev.At
			return alarmed
		}
	}
	if s.reclaimAt <= until {
		s.now = s.reclaimAt
		return evicted
	}
	s.now = until
	return ran
}

// stamp is the current instant on the campaign's virtual axis.
func (s *session) stamp() float64 { return s.start + s.now }

// transfer moves one image over the link — the recovery image, or the
// checkpoint of pendingWork — and times it: measuredC is what the next
// interval is planned with. Over a ChaosLink an attempt may tear
// partway; torn attempts are retried after exponential backoff, up to
// the link's MaxAttempts, after which the transfer is abandoned and the
// last attempt's untorn duration, estimated from its observed
// throughput, is the process's best remaining measure of the cost. An
// eviction bills the fraction of the attempt that crossed the wire and
// loses the pending work with the machine.
func (s *session) transfer(name string, checkpoint bool) ending {
	tr := s.cfg.Tracer
	for attempt := 1; ; attempt++ {
		t0 := s.now
		// Checkpoints over an established base ship only the chunks
		// dirtied since the last commit. Retries recompute the same size
		// (pendingWork is untouched during backoff).
		xfer, mb := s.bytes, s.cfg.CheckpointMB
		if checkpoint && s.cfg.Delta.Enabled && s.hasBase {
			xfer = s.deltaWire(s.pendingWork)
			mb = float64(xfer) / ckptnet.MB
		}
		// A clean link is one draw from the transfer-time model: an
		// attempt that never tears.
		var a ckptnet.TransferAttempt
		if s.chaos == nil {
			a.Sec = s.cfg.Link.TransferTime(xfer, s.rng)
			a.FullSec = a.Sec
		} else {
			a = s.chaos.Attempt(xfer, s.rng)
		}
		if s.wait(a.Sec, false) == evicted {
			elapsed := s.now - t0
			s.TransferSec += elapsed
			if a.FullSec > 0 {
				// Prorate what was in flight: for a delta that is its
				// dirty chunks, not the whole image.
				s.MBMoved += mb * elapsed / a.FullSec
				s.cfg.wire.Add(s.stamp(), int64(mb*ckptnet.MB*elapsed/a.FullSec+0.5))
			}
			s.LostWork += s.pendingWork
			return evicted
		}
		s.TransferSec += a.Sec
		if !a.Torn {
			s.MBMoved += mb
			s.cfg.wire.Add(s.stamp(), xfer)
			tr.SpanAt(s.pid, 1, name, s.start+t0, a.Sec,
				obs.AttrStr("outcome", "done"), obs.AttrFloat("mb", mb))
			if xfer < s.bytes {
				s.DeltaCheckpoints++
			} else if !s.hasBase {
				// The first full image to land at the manager — fetched by
				// the recovery or, if that was abandoned, shipped by a
				// checkpoint — is the base later deltas are cut against.
				s.hasBase, s.fullSec = true, a.Sec
			}
			if s.forecast != nil {
				_ = s.forecast.Observe(xfer, a.Sec) // sized and timed here, so never invalid
			}
			s.MeasuredCs = append(s.MeasuredCs, a.Sec)
			s.measuredC = a.Sec
			return ran
		}
		s.Torn++
		if a.FullSec > 0 {
			s.MBMoved += mb * a.Sec / a.FullSec
			s.cfg.wire.Add(s.stamp(), int64(float64(xfer)*a.Sec/a.FullSec+0.5))
		}
		tr.SpanAt(s.pid, 1, name, s.start+t0, a.Sec,
			obs.AttrStr("outcome", "torn"), obs.AttrInt("attempt", int64(attempt)))
		tr.EventAt(s.pid, 1, "torn_frame", s.stamp(),
			obs.AttrInt("attempt", int64(attempt)))
		if attempt >= s.chaos.MaxAttempts() {
			if a.FullSec > 0 {
				s.measuredC = a.FullSec
			}
			return abandoned
		}
		s.Retries++
		bo := s.chaos.BackoffSec(attempt, s.rng)
		s.BackoffSec += bo
		tr.EventAt(s.pid, 1, "retry", s.stamp(),
			obs.AttrInt("attempt", int64(attempt)), obs.AttrFloat("backoff_s", bo))
		if s.wait(bo, false) == evicted {
			// Evicted while waiting to retry: any uncommitted work is
			// lost with the machine.
			s.LostWork += s.pendingWork
			return evicted
		}
	}
}

// deltaWire is the expected bytes-on-wire for a checkpoint taken after
// workSec seconds of uncommitted work, rounded to whole image-store
// chunks (at least one: the manifest always moves something). It is a
// deterministic function of the uncommitted-work window, so the delta
// path draws exactly the same RNG sequence as the full path. transfer
// bills it and deltaCost plans with it.
func (s *session) deltaWire(workSec float64) int64 {
	const chunk = imagestore.DefaultChunkSize
	numChunks := imagestore.NumChunks(s.bytes, chunk)
	f := -math.Expm1(-s.cfg.Delta.DirtyRate * workSec)
	dirty := max(int64(math.Round(float64(numChunks)*f)), 1)
	return min(dirty*chunk, s.bytes)
}

// fixedSec is the link's per-transfer cost, whatever the payload: the
// time of an empty transfer.
func (s *session) fixedSec() float64 { return s.cfg.Link.TransferTime(0, nil) }

// deltaCost is the planner's C(T): what transfer bills a delta
// checkpoint after T seconds of work on a noiseless link — the fixed
// cost plus deltaWire(T) over the bandwidth estimate. The fixed term
// is what keeps the optimum off the search floor: without it C(T) ≈ k·T
// near zero, and Γ/T falls all the way down to TMin. It is nil until
// the session has a bandwidth anchor.
func (s *session) deltaCost() markov.CostFunc {
	bw := s.bandwidthEst()
	if !(bw > 0) {
		return nil
	}
	fixed := s.fixedSec()
	return func(T float64) float64 { return fixed + float64(s.deltaWire(T))/bw }
}

// planningC is the transfer cost the next interval is planned with: the
// shared forecast when one is running, else the last measurement.
func (s *session) planningC() float64 {
	if s.forecast != nil {
		if sec, err := s.forecast.PredictTransferSec(s.bytes); err == nil {
			return sec
		}
	}
	return s.measuredC
}

// bandwidthEst anchors the variable-cost curve: the shared forecast
// when one is running, else the session's own full-image measurement
// with the link's fixed cost netted out, so that deltaCost adds it
// back exactly once (delta transfer times are the wrong anchor — their
// size varies with the interval, which is the very thing the curve
// models).
func (s *session) bandwidthEst() float64 {
	if s.forecast != nil {
		if bw, err := s.forecast.Bandwidth(); err == nil {
			return bw
		}
	}
	if payload := s.fullSec - s.fixedSec(); payload > 0 {
		return float64(s.bytes) / payload
	}
	return 0
}

// decide sets topt for the next work interval from the planning cost
// and the hosting resource's age — phases are contiguous in virtual
// time (including retry backoff), so that is always the allocation age
// plus the session's elapsed time.
func (s *session) decide() {
	age := s.TElapsed + s.now
	planC := s.planningC()
	degraded := false
	if s.chaos != nil && s.chaos.Unreachable(s.rng) {
		// Manager unreachable: degrade to the last assigned schedule
		// rather than abort; a process that never got one falls back to
		// the conservative exponential interval.
		if s.topt <= 0 {
			s.topt = conservativeTopt(s.fits, s.cfg.HeartbeatSec, planC, age)
		}
		s.Fallbacks++
		degraded = true
		s.cfg.Tracer.EventAt(s.pid, 1, "fallback", s.stamp(),
			obs.AttrStr("cause", "unreachable"), obs.AttrFloat("t_opt", s.topt))
	} else {
		m := markov.Model{Avail: s.avail, Costs: markov.Costs{C: planC, R: planC, L: planC}}
		if s.cfg.Delta.VariableCost {
			// Schedule against the interval-dependent delta cost C(T): a
			// longer interval dirties more chunks and ships more bytes. A
			// nil curve (no bandwidth anchor yet) falls back to the
			// constant measured cost.
			m.CostFn = s.deltaCost()
		}
		var err error
		if s.topt, _, err = m.Topt(age, markov.OptimizeOptions{}); err != nil {
			// No feasible interval under the planned cost (the model
			// believes restart cannot complete): fall back to a minimal
			// interval so the process keeps making progress.
			s.topt = planC
		}
	}
	s.Intervals++
	s.cfg.Tracer.EventAt(s.pid, 1, "topt", s.stamp(),
		obs.AttrFloat("t_opt", s.topt),
		obs.AttrFloat("age", age),
		obs.AttrFloat("measured_c", planC),
		obs.AttrBool("fallback", degraded))
}

// conservativeTopt is the degraded-mode interval for a process with no
// previously assigned schedule and no reachable manager: T_opt under
// an exponential fit of the pooled availability archive — the
// memoryless, most conservative member of the model family — with the
// best available cost estimate.
func conservativeTopt(fits *Fits, heartbeatSec, planC, age float64) float64 {
	if d, err := fits.conservative(); err == nil && planC > 0 {
		m := markov.Model{Avail: d, Costs: markov.Costs{C: planC, R: planC, L: planC}}
		if topt, _, err := m.Topt(age, markov.OptimizeOptions{}); err == nil && topt > 0 {
			return topt
		}
	}
	if planC > 0 {
		return planC
	}
	return heartbeatSec
}

// Fits memoizes the per-(machine, model) fits of one availability
// history, with a pooled fallback for machines lacking history. It
// wraps the concurrency-safe fit.Cache, so replay-phase workers — and
// any number of campaigns and validations over the same history — can
// share it: each (machine, model) pair is fitted at most once, and
// concurrent first requests single-flight instead of refitting. Fits
// and their errors are deterministic functions of the history, so who
// asked first never shows in a result.
type Fits struct {
	// history identifies the archive the durations were read from.
	history *trace.Set
	// durations holds each machine's history when it is long enough to
	// fit on its own; every other machine is fitted on pooled. The
	// slices are extracted once so that a repeat fitFor is a map probe:
	// fit.Cache recognises the very slice an entry was created with and
	// skips re-fingerprinting it.
	durations map[string][]float64
	pooled    []float64
	cache     *fit.Cache
	// conservative() memoizes the exponential fit of the pooled
	// archive, the degraded-mode fallback distribution.
	consOnce sync.Once
	consDist dist.Distribution
	consErr  error
}

// NewFits reads history's durations — history must not change
// afterwards — and returns an empty memo over them. Pass it as
// CampaignConfig.Fits and to Validate to fit once across several calls.
func NewFits(history *trace.Set) (*Fits, error) {
	if history == nil {
		return nil, errors.New("live: no availability history")
	}
	f := &Fits{
		history:   history,
		durations: make(map[string][]float64),
		cache:     fit.NewCache(),
	}
	for _, name := range history.Machines() {
		d := history.Traces[name].Durations()
		f.pooled = append(f.pooled, d...)
		if len(d) >= trace.DefaultTrainingSize {
			f.durations[name] = d
		}
	}
	if len(f.pooled) == 0 {
		return nil, errors.New("live: empty history")
	}
	return f, nil
}

// fitFor returns the fitted distribution for machine under model. Safe
// for concurrent use.
func (f *Fits) fitFor(machine string, model fit.Model) (dist.Distribution, error) {
	data, ok := f.durations[machine]
	if !ok {
		data = f.pooled
	}
	return f.cache.Fit(machine, model, data)
}

// fitPlaced fits what the placed samples need over the worker pool —
// the memo single-flights samples that share a (machine, model) pair —
// and reports the first failure in placement order: the sample the
// serial event loop would have tripped over first had it fitted at
// each placement. After a nil return the replay phase cannot fail on
// fits.
func (f *Fits) fitPlaced(allocs []allocation) error {
	errs := make([]error, len(allocs))
	forEach(len(allocs), func(idx int) {
		_, errs[idx] = f.fitFor(allocs[idx].machine.Name, modelFor(idx))
	})
	for idx, err := range errs {
		if err != nil {
			// A broken archive is a configuration error.
			return fmt.Errorf("live: sample %d (%v): %w", idx, modelFor(idx), err)
		}
	}
	return nil
}

// conservative returns the exponential fit of the pooled archive,
// fitting it on first use. Safe for concurrent use.
func (f *Fits) conservative() (dist.Distribution, error) {
	f.consOnce.Do(func() {
		f.consDist, f.consErr = fit.Fit(fit.ModelExponential, f.pooled)
	})
	return f.consDist, f.consErr
}
