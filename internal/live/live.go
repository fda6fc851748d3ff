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
	// VariableCost schedules with the interval-dependent cost curve
	// C(T) built from forecast.CostModel over the session's bandwidth
	// estimate, instead of the constant last-measured cost. Requires
	// Enabled.
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

// chaosLink is the fault-injection surface a link may expose beyond
// plain transfer times; ckptnet.ChaosLink implements it. When the
// campaign's Link satisfies it the runner switches into resilient
// mode: transfer attempts may tear and are retried with exponential
// backoff, and a schedule recomputation may find the manager
// unreachable, degrading the process onto its previous schedule.
type chaosLink interface {
	ckptnet.Link
	Attempt(bytes int64, rng *rand.Rand) ckptnet.TransferAttempt
	Unreachable(rng *rand.Rand) bool
	MaxAttempts() int
	BackoffSec(attempt int, rng *rand.Rand) float64
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
	chaos, _ := cfg.Link.(chaosLink)

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
		return &Campaign{LinkName: cfg.Link.Name(), Samples: samples, Wire: cfg.wire}, nil
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
	return &Campaign{LinkName: cfg.Link.Name(), Samples: samples, Wire: cfg.wire}, nil
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

// runSession simulates one test process's session — the
// recover/work/checkpoint state machine between placement and
// eviction — on a private virtual clock starting at 0 (session times
// are relative; nothing in a session depends on absolute pool time).
// It is the unit of replay-phase parallelism: everything it touches is
// private except the concurrency-safe fit cache and, for forecast
// campaigns, the shared predictor (in which case sessions run
// sequentially). Over a chaosLink the machine gains two extra
// behaviors: torn transfers are retried with exponential backoff
// (phaseBackoff), and manager outages degrade the schedule to the last
// assigned interval instead of aborting.
func runSession(cfg CampaignConfig, chaos chaosLink, fits *Fits, predictor *forecast.BandwidthPredictor, idx int, al allocation, rng *rand.Rand) (Sample, error) {
	type phase int
	const (
		phaseRecovering phase = iota
		phaseWorking
		phaseCheckpointing
		phaseBackoff
	)

	var (
		s           Sample
		clock       condor.Clock
		evicted     bool
		measuredC   float64
		topt        float64
		pendingWork float64 // work computed but not yet committed by a checkpoint
		ph          phase
		phaseT0     float64 // virtual time the current phase began
		phaseDur    float64 // planned phase duration
		phaseMB     float64 // size of the transfer in flight (a delta's wire size, not the image's)
		pending     *condor.Event
		migrating   bool // current transfer is a prediction-triggered migration
		predTrue    bool // a true alarm fired this session
		alarmIdx    int  // alarms settled so far (fired or flushed)
	)
	model := modelFor(idx)
	s.Model = model
	s.Machine = al.machine.Name
	s.TElapsed = al.tel
	tel := al.tel
	sessionLen := al.evictAt - al.start
	bytes := int64(cfg.CheckpointMB * ckptnet.MB)

	// Delta checkpointing state: hasBase becomes true once a full image
	// has landed at the manager (the recovery transfer), after which
	// checkpoints ship only dirty chunks. The wire size is a
	// deterministic function of the uncommitted-work window, so the
	// delta path draws exactly the same RNG sequence as the full path.
	var (
		hasBase bool
		fullSec float64 // last measured full-image transfer time (recovery)
	)
	// Dedup chunks are 64 KiB, matching imagestore.DefaultChunkSize.
	const chunkBytes = 64 << 10
	numChunks := (bytes + chunkBytes - 1) / chunkBytes
	// deltaWire is the expected bytes-on-wire for a checkpoint taken
	// after workSec seconds of uncommitted work, rounded to whole
	// chunks (at least one: the manifest always moves something).
	deltaWire := func(workSec float64) int64 {
		f := -math.Expm1(-cfg.Delta.DirtyRate * workSec)
		dirty := int64(math.Round(float64(numChunks) * f))
		if dirty < 1 {
			dirty = 1
		}
		wire := dirty * chunkBytes
		if wire > bytes {
			wire = bytes
		}
		return wire
	}

	d, fitErr := fits.fitFor(al.machine.Name, model)
	if fitErr != nil {
		// Unreachable in practice: fitPlaced checked this exact fit and
		// the cache memoizes it.
		return Sample{}, fmt.Errorf("live: sample %d (%v): %w", idx, model, fitErr)
	}

	// Trace lane: one pid per sample, timestamps on the campaign's
	// virtual axis (allocation start + session-local time).
	tr := cfg.Tracer
	pid := cfg.TracePidBase + uint64(idx) + 1
	abs := func(t float64) float64 { return al.start + t }

	// Oracle fault predictor: this session's alarms come from a private
	// stream derived from (Seed, idx), so the session's transfer and
	// chaos draws on rng are untouched whether or not prediction is on.
	// Predictor events live on their own trace lane (tid 2).
	var pred *predict.Predictor
	var alarms []predict.Event
	if cfg.Predict.Enabled() {
		pred, _ = predict.New(cfg.Predict) // RunCampaign vetted the config
		prng := rand.New(rand.NewSource(predict.StreamSeed(taskSeed(cfg.Seed, idx))))
		alarms = pred.PeriodEvents(sessionLen, prng)
	}
	planningC := func() float64 {
		if predictor != nil {
			if sec, err := predictor.PredictTransferSec(bytes); err == nil {
				return sec
			}
		}
		return measuredC
	}
	// bandwidthEst anchors the variable-cost curve: the shared forecast
	// when one is running, else the session's own full-image recovery
	// measurement (delta transfer times are the wrong anchor — their
	// size varies with the interval, which is the very thing the curve
	// models).
	bandwidthEst := func() float64 {
		if predictor != nil {
			if bw, err := predictor.Bandwidth(); err == nil {
				return bw
			}
		}
		if fullSec > 0 {
			return float64(bytes) / fullSec
		}
		return 0
	}
	// ageNow is the hosting resource's age: phases are contiguous in
	// virtual time (including retry backoff), so age is always the
	// allocation age plus the session's elapsed time.
	ageNow := func() float64 { return tel + clock.Now() }

	var beginWork func()
	var beginCheckpoint func()
	var doTransfer func(kind phase, attempt int, onDone, onFail func(sec float64))

	// doTransfer moves one checkpoint image over the link. Over a
	// chaosLink an attempt may tear partway; torn attempts are retried
	// after exponential backoff, up to the link's MaxAttempts, after
	// which onFail degrades the process (sec = the last attempt's
	// estimated full duration, the process's best remaining cost
	// estimate).
	// transferName maps a transfer phase to its trace-span name.
	transferName := func(kind phase) string {
		if kind == phaseRecovering {
			return "transfer.recovery"
		}
		if migrating {
			return "transfer.migrate"
		}
		return "transfer.checkpoint"
	}

	doTransfer = func(kind phase, attempt int, onDone, onFail func(sec float64)) {
		t0 := clock.Now()
		// Size the transfer: checkpoints over an established base ship
		// only the chunks dirtied since the last commit. Retries recompute
		// the same size (pendingWork is untouched during backoff).
		xfer, mb := bytes, cfg.CheckpointMB
		isDelta := false
		if kind == phaseCheckpointing && cfg.Delta.Enabled && hasBase {
			xfer = deltaWire(pendingWork)
			mb = float64(xfer) / ckptnet.MB
			isDelta = xfer < bytes
		}
		// A clean link is one draw from the transfer-time model: an
		// attempt that never tears.
		var a ckptnet.TransferAttempt
		if chaos == nil {
			a.Sec = cfg.Link.TransferTime(xfer, rng)
			a.FullSec = a.Sec
		} else {
			a = chaos.Attempt(xfer, rng)
		}
		ph, phaseT0, phaseDur, phaseMB = kind, t0, a.FullSec, mb
		if !a.Torn {
			pending = clock.Schedule(a.Sec, func() {
				s.TransferSec += a.Sec
				s.MBMoved += mb
				cfg.wire.Add(abs(clock.Now()), xfer)
				tr.SpanAt(pid, 1, transferName(kind), abs(t0), a.Sec,
					obs.AttrStr("outcome", "done"), obs.AttrFloat("mb", mb))
				if isDelta {
					s.DeltaCheckpoints++
				}
				if predictor != nil {
					_ = predictor.Observe(xfer, a.Sec) // sized and timed here, so never invalid
				}
				onDone(a.Sec)
			})
			return
		}
		pending = clock.Schedule(a.Sec, func() {
			s.Torn++
			s.TransferSec += a.Sec
			if a.FullSec > 0 {
				s.MBMoved += mb * a.Sec / a.FullSec
				cfg.wire.Add(abs(clock.Now()), int64(float64(xfer)*a.Sec/a.FullSec+0.5))
			}
			tr.SpanAt(pid, 1, transferName(kind), abs(t0), a.Sec,
				obs.AttrStr("outcome", "torn"), obs.AttrInt("attempt", int64(attempt)))
			tr.EventAt(pid, 1, "torn_frame", abs(clock.Now()),
				obs.AttrInt("attempt", int64(attempt)))
			if attempt >= chaos.MaxAttempts() {
				onFail(a.FullSec)
				return
			}
			s.Retries++
			bo := chaos.BackoffSec(attempt, rng)
			s.BackoffSec += bo
			tr.EventAt(pid, 1, "retry", abs(clock.Now()),
				obs.AttrInt("attempt", int64(attempt)), obs.AttrFloat("backoff_s", bo))
			ph, phaseT0, phaseDur = phaseBackoff, clock.Now(), bo
			pending = clock.Schedule(bo, func() {
				doTransfer(kind, attempt+1, onDone, onFail)
			})
		})
	}

	beginWork = func() {
		age := ageNow()
		planC := planningC()
		degraded := false
		if chaos != nil && chaos.Unreachable(rng) {
			// Manager unreachable: degrade to the last assigned
			// schedule rather than abort; a process that never got one
			// falls back to the conservative exponential interval.
			if topt <= 0 {
				topt = conservativeTopt(fits, cfg.HeartbeatSec, planC, age)
			}
			s.Fallbacks++
			degraded = true
			tr.EventAt(pid, 1, "fallback", abs(clock.Now()),
				obs.AttrStr("cause", "unreachable"), obs.AttrFloat("t_opt", topt))
		} else {
			costs := markov.Costs{C: planC, R: planC, L: planC}
			m := markov.Model{Avail: d, Costs: costs}
			if cfg.Delta.VariableCost {
				// Schedule against the interval-dependent delta cost
				// C(T): a longer interval dirties more chunks and ships
				// more bytes. A nil curve (no bandwidth anchor yet)
				// falls back to the constant measured cost.
				m.CostFn = forecast.CostModel{
					FullBytes: bytes,
					DirtyRate: cfg.Delta.DirtyRate,
				}.Curve(bandwidthEst())
			}
			var err error
			topt, _, err = m.Topt(age, markov.OptimizeOptions{})
			if err != nil {
				// No feasible interval under the planned cost (the model
				// believes restart cannot complete): fall back to a
				// minimal interval so the process keeps making progress.
				topt = planC
			}
		}
		s.Intervals++
		tr.EventAt(pid, 1, "topt", abs(clock.Now()),
			obs.AttrFloat("t_opt", topt),
			obs.AttrFloat("age", age),
			obs.AttrFloat("measured_c", planC),
			obs.AttrBool("fallback", degraded))
		ph, phaseT0, phaseDur = phaseWorking, clock.Now(), topt
		pending = clock.Schedule(topt, beginCheckpoint)
	}

	// shipCheckpoint sends the pending work's image — as the scheduled
	// checkpoint that ends an interval or, with alarmed set, as the
	// alarm-triggered one (a migration when migrating is set).
	shipCheckpoint := func(alarmed bool) {
		doTransfer(phaseCheckpointing, 1, func(sec float64) {
			// Committed — including any work a previously abandoned
			// checkpoint left uncommitted.
			s.CommittedWork += pendingWork
			pendingWork = 0
			s.MeasuredCs = append(s.MeasuredCs, sec)
			measuredC = sec
			if migrating {
				// The image is at the destination: the process leaves
				// the doomed machine and the session ends here.
				migrating = false
				s.AddMigration(cfg.CheckpointMB)
				s.Migrated = true
				s.SessionSec = clock.Now()
				return
			}
			if alarmed {
				s.ProactiveCheckpoints++
			}
			s.Checkpoints++
			beginWork()
		}, func(est float64) {
			// Abandoned after bounded retries: the process stays put
			// and keeps computing on the degraded schedule; the work
			// stays pending until the next checkpoint goes through.
			migrating = false
			if est > 0 {
				measuredC = est
			}
			s.Fallbacks++
			tr.EventAt(pid, 1, "fallback", abs(clock.Now()),
				obs.AttrStr("cause", "retries-exhausted"))
			beginWork()
		})
	}

	beginCheckpoint = func() {
		// Work interval finished; heartbeats were sent every
		// HeartbeatSec during it. The interval's work stays pending
		// until a checkpoint transfer commits it.
		s.Heartbeats += int(phaseDur / cfg.HeartbeatSec)
		pendingWork += topt
		shipCheckpoint(false)
	}

	// Schedule the eviction before any session event so that, at equal
	// timestamps, the owner's reclaim outranks session activity (FIFO
	// tie-break) — the same precedence the pool gives it.
	clock.Schedule(sessionLen, func() {
		if pending != nil {
			pending.Cancel()
		}
		at := clock.Now()
		elapsed := at - phaseT0
		switch ph {
		case phaseRecovering, phaseCheckpointing:
			s.TransferSec += elapsed
			if phaseDur > 0 {
				// Prorate what was in flight: for a delta that is its
				// dirty chunks, not the whole image.
				s.MBMoved += phaseMB * elapsed / phaseDur
				cfg.wire.Add(abs(at), int64(phaseMB*ckptnet.MB*elapsed/phaseDur+0.5))
			}
			if ph == phaseCheckpointing {
				s.LostWork += pendingWork
			}
		case phaseWorking:
			s.LostWork += pendingWork + elapsed
			s.Heartbeats += int(elapsed / cfg.HeartbeatSec)
		case phaseBackoff:
			// Evicted while waiting to retry a transfer: any
			// uncommitted work is lost with the machine.
			s.LostWork += pendingWork
		}
		s.SessionSec = at
		evicted = true
		tr.EventAt(pid, 1, "evicted", abs(at))
		// Settle the predictor's books: alarms due at the eviction
		// instant itself still fired, and the reclaim is a hit or a
		// miss depending on whether a true alarm preceded it.
		if pred != nil {
			s.Evict(tr, pid, 2, al.start, abs(at), alarms[alarmIdx:], predTrue)
		}
	})

	// Predictor alarms fire as session events; scheduling them after
	// the eviction hook keeps the owner's reclaim first at equal
	// timestamps. An alarm only interrupts a work interval — a process
	// mid-transfer or mid-backoff has nothing new to save — and the
	// process cannot tell true alarms from false ones (that is what
	// precision costs).
	onAlarm := func(ev predict.Event) {
		alarmIdx++
		if s.Alarm(tr, pid, 2, abs(ev.At), ev) {
			predTrue = true
		}
		if cfg.Policy == predict.PolicyReactive || ph != phaseWorking {
			return
		}
		elapsed := clock.Now() - phaseT0
		s.Heartbeats += int(elapsed / cfg.HeartbeatSec)
		pendingWork += elapsed
		if pending != nil {
			pending.Cancel()
		}
		migrating = cfg.Policy == predict.PolicyMigrate
		shipCheckpoint(true)
	}
	for _, ev := range alarms {
		clock.Schedule(ev.At, func() { onAlarm(ev) })
	}

	// Initial recovery transfer, timed by the process.
	doTransfer(phaseRecovering, 1, func(sec float64) {
		measuredC = sec
		fullSec = sec
		hasBase = true // the manager holds the full image we just fetched
		s.MeasuredCs = append(s.MeasuredCs, sec)
		beginWork()
	}, func(est float64) {
		// Recovery abandoned after bounded retries: start computing
		// from scratch, estimating the transfer cost from the torn
		// attempts' observed throughput.
		measuredC = est
		beginWork()
	})

	for !evicted && !s.Migrated && clock.Step() {
	}
	if !evicted && !s.Migrated {
		return Sample{}, fmt.Errorf("live: sample %d (%v): session ran out of events before eviction", idx, model)
	}
	if pred != nil {
		s.Flush()
	}
	tr.SpanAt(pid, 1, "session", abs(0), s.SessionSec,
		obs.AttrStr("model", model.String()),
		obs.AttrStr("machine", s.Machine),
		obs.AttrFloat("t_elapsed", s.TElapsed),
		obs.AttrFloat("t_opt", topt),
		obs.AttrFloat("efficiency", s.Efficiency()),
		obs.AttrBool("migrated", s.Migrated),
		obs.AttrInt("intervals", int64(s.Intervals)))
	return s, nil
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
