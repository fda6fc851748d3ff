package parallel

import (
	"math"
	"math/bits"
	"math/rand"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// Worker states, packed into hotWorker.state.
const (
	wRecovering uint8 = iota
	wWorking
	wTransferring // checkpoint upload
	wQueued       // waiting for the transfer token (StaggerToken)
)

// hotWorker flag bits, packed into hotWorker.flags.
const (
	fWantRecovery uint8 = 1 << iota // queued transfer is a recovery (no work at stake)
	fPredTrue                       // a true alarm fired this period
	fMigrating                      // current transfer is a migration
	fProactive                      // current transfer was alarm-triggered
)

// hotWorker is the per-worker state the event loop touches on every
// event, packed to exactly one 64-byte cache line so processing an
// event costs one line fill instead of a stride across parallel
// slices. Cold per-worker state (predictor alarm lists, schedule
// hints) lives in structure-of-arrays form on the shard instead.
type hotWorker struct {
	availStart  float64 // when the current availability began
	failAt      float64 // when the owner reclaims the machine
	workEnd     float64 // when the current interval completes (wWorking)
	topt        float64 // current interval length
	target      float64 // cumulative service mark at which the transfer completes
	started     float64 // transfer start time
	queuedSince float64 // queue bookkeeping (StaggerToken)
	queueSeq    uint32  // bumped per enqueue; stale FIFO entries are skipped
	xferGen     uint16  // bumped per transfer start; stale ring entries are skipped
	state       uint8
	flags       uint8
}

// shard is one sub-engine: a contiguous range of workers with its own
// hot-state slab and wall-clock sub-heaps. Shards partition by id
// (shard = id >> shift), so a shard's slab and heaps stay
// cache-resident while the coordinator works through a burst of events
// in its region of the id space, and sift depth is log4 of the shard
// width instead of log2 of the whole herd.
//
// The wall calendar splits by event kind, by update rate: failH holds
// every worker keyed by its failure time and is touched only when a
// period ends (a handful of times per worker per day), and predH holds
// pending predictor alarms (non-reactive policies only). The high-rate
// class — work-interval completions, one per commit cycle — lives in
// the engine's global timing wheel (wheel.go) instead of a comparison
// heap, so the per-cycle calendar cost is O(1) splices rather than
// full-depth sifts, and the tournament over shards is only consulted
// for the rare fail/pred candidates. cand caches the root minimum; the
// tournament is only touched when it changes.
type shard struct {
	base  int // global id of local index 0
	ws    []hotWorker
	failH eventHeap // all workers: failure time (kindFail)
	predH eventHeap // pending alarms (kindPred; non-reactive policies)
	cand  heapNode  // cached min of the two roots (id is shard-local)
	hints []int32   // per-worker Schedule.LookupFrom hint
	// Predictor bookkeeping (nil unless Config.Predict enabled).
	alarms   [][]predict.Event // this availability period's alarms
	alarmIdx []int32           // next alarm to fire
}

// candidate returns the shard's earliest fail-or-alarm event. failH is
// never empty (every worker always has a pending failure), so the
// shard always has a candidate.
func (sh *shard) candidate() heapNode {
	c := sh.failH.nodes[0]
	if len(sh.predH.nodes) > 0 && nodeLess(sh.predH.nodes[0], c) {
		c = sh.predH.nodes[0]
	}
	return c
}

type queueEntry struct{ id, seq int }

// ringEntry is one in-flight transfer in the service-coordinate FIFO.
type ringEntry struct {
	target float64 // cumulative service mark at which the transfer completes
	id     int32
	gen    uint16 // hotWorker.xferGen at start; mismatch = aborted (stale)
	_      uint16
}

// defaultShardSize is the auto shard width: 256 workers keep a shard's
// hot slab (16 KiB) plus sub-heaps L1-resident, while the tournament
// stays small (a 10⁶-worker herd is ~4k shards, a 64 KiB heap). The
// width is a pure function of the worker count — never of GOMAXPROCS —
// so auto-sharded results are identical on every machine.
const defaultShardSize = 256

// shardWidth returns the power-of-two workers-per-shard for a run.
// Shards <= 0 selects the default width; an explicit shard count is
// served by the smallest power-of-two width that needs at most that
// many shards (Shards=1 therefore yields exactly one sub-engine — the
// unsharded calendar).
func shardWidth(workers, shards int) int {
	if shards <= 0 {
		return defaultShardSize
	}
	per := (workers + shards - 1) / shards
	width := 1
	for width < per {
		width <<= 1
	}
	return width
}

// engine is the sharded event-calendar simulation state. Transfers
// progress under processor sharing, tracked in "service" units: svc is
// the cumulative MB a hypothetical always-active transfer would have
// received since t=0, advancing at LinkMBps/max(1, nActive). A
// transfer starting at service mark s completes at mark s +
// CheckpointMB regardless of how the rate changes in between, so
// completion order is fixed at start time — and because every image is
// the same size, completion marks are monotone in start order, which
// reduces the whole transfer calendar to a FIFO ring with O(1) pushes
// and pops (entries from aborted transfers are skipped by generation
// check).
//
// The coordinator is serial: shards are a data-layout decomposition,
// not concurrent actors. Every event — including every draw from the
// single RNG stream and every add into the floating-point service and
// accounting state — happens in the one global (time, kind, id) order,
// which is how results stay bit-identical for any shard count and any
// GOMAXPROCS (DESIGN.md §14).
type engine struct {
	cfg        Config
	rng        *rand.Rand
	res        Result
	sched      *markov.Schedule
	memoryless bool
	fastOK     bool    // single-interval memoryless plan: skip Lookup entirely
	fastT      float64 // the interval served by the fast path
	solo       float64
	mb         float64 // CheckpointMB

	shards []shard
	shift  uint // shard = id >> shift
	mask   int  // local = id & mask

	tourney eventHeap  // over shards, keyed by each shard's cached candidate
	wheel   *workWheel // working workers keyed by interval completion

	ring  []ringEntry // in-flight transfers, FIFO in the service coordinate
	rHead int

	pred      *predict.Predictor // nil = prediction off
	prng      *rand.Rand         // predictor's private stream (predict.StreamSeed)
	predInCal bool               // alarms enter the calendar (non-reactive policy)

	svc     float64 // cumulative per-transfer service (MB)
	svcAt   float64 // wall-clock time svc was advanced to
	nActive int     // concurrent transfers (recoveries included)
	rateNow float64 // LinkMBps/max(1, nActive), refreshed when nActive moves

	lastMulti float64 // last instant the link was shared; seeds collision counting

	queue []queueEntry // token-policy FIFO
	qHead int

	xferSum   float64 // streaming mean of completed transfer durations
	xferCount int

	tr  *obs.Tracer // nil = tracing off
	pid uint64      // trace lane (Config.TracePid, default 1)

	now float64
}

// wref resolves a global worker id to its shard and hot record.
func (e *engine) wref(id int) (*shard, *hotWorker) {
	sh := &e.shards[id>>e.shift]
	return sh, &sh.ws[id&e.mask]
}

// updateCand refreshes shard s's cached candidate and, only when it
// changed, its tournament entry. Most mutations (a workH insert above
// the root, an alarm consumed behind a nearer failure) leave the
// candidate alone and skip the tournament entirely.
func (e *engine) updateCand(s int) {
	sh := &e.shards[s]
	c := sh.candidate()
	if c == sh.cand {
		return
	}
	sh.cand = c
	e.tourney.Update(s, c.key, c.kind)
}

// newEngine initializes the simulation state shared by the sharded
// engine and the linear-scan reference engine: workers draw their
// first lifetimes in index order, then initial recoveries start (the
// token policy serializes even these).
func newEngine(cfg Config, sched *markov.Schedule) *engine {
	width := shardWidth(cfg.Workers, cfg.Shards)
	nShards := (cfg.Workers + width - 1) / width
	e := &engine{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		sched:      sched,
		memoryless: dist.IsMemoryless(cfg.ScheduleDist),
		solo:       cfg.CheckpointMB / cfg.LinkMBps,
		mb:         cfg.CheckpointMB,
		shift:      uint(bits.TrailingZeros(uint(width))),
		mask:       width - 1,
		shards:     make([]shard, nShards),
		lastMulti:  math.Inf(-1),
		tr:         cfg.Trace,
		pid:        cfg.TracePid,
	}
	if sched != nil && sched.Len() == 1 && e.memoryless {
		// A memoryless model plans one interval and extends it as the
		// steady state; serving it straight from the plan skips the
		// per-commit Lookup.
		e.fastOK = true
		e.fastT = sched.Intervals[0]
	}
	if e.tr != nil && e.pid == 0 {
		e.pid = 1
	}
	if cfg.Predict.Enabled() {
		// validate() vetted the config; New only fails on invalid input.
		e.pred, _ = predict.New(cfg.Predict)
		e.prng = rand.New(rand.NewSource(predict.StreamSeed(cfg.Seed)))
		e.predInCal = cfg.Policy != predict.PolicyReactive
	}
	for s := range e.shards {
		sh := &e.shards[s]
		sh.base = s * width
		sh.cand.key = math.NaN() // != any real candidate, forcing the first tourney insert
		n := cfg.Workers - sh.base
		if n > width {
			n = width
		}
		sh.ws = make([]hotWorker, n)
		sh.failH.init(n)
		sh.predH.init(n)
		if !e.fastOK {
			sh.hints = make([]int32, n)
		}
		if e.pred != nil {
			sh.alarms = make([][]predict.Event, n)
			sh.alarmIdx = make([]int32, n)
		}
	}
	e.tourney.init(nShards)
	// The wheel's key span bounds workEnd - now: every interval served
	// is a planned interval, the solo-cost fallback, or either of those
	// stretched by up to 30% jitter — all known exactly at this point.
	span := e.solo
	if sched != nil {
		for _, T := range sched.Intervals {
			if T > span {
				span = T
			}
		}
	}
	if cfg.Stagger == StaggerJitter {
		span *= 1.3
	}
	e.wheel = newWorkWheel(cfg.Workers, span)
	e.res.SoloTransferSec = e.solo
	for id := 0; id < cfg.Workers; id++ {
		sh, w := e.wref(id)
		w.failAt = cfg.Avail.Rand(e.rng)
		w.state = wWorking // neutral until startTransfer assigns one
		sh.failH.Update(id&e.mask, w.failAt, kindFail)
	}
	for s := range e.shards {
		e.updateCand(s)
	}
	// Alarm draws come after every lifetime draw, in worker order, from
	// the predictor's own stream — the lifetime stream stays untouched.
	for id := 0; id < cfg.Workers; id++ {
		e.newPeriod(id)
	}
	for id := 0; id < cfg.Workers; id++ {
		e.startTransfer(id, true)
	}
	return e
}

// run drives the event loop: the tournament root names the shard
// holding the earliest failure or alarm, the wheel holds the next
// work-interval completion, the ring head holds the next transfer
// completion, and the earliest of the three (by the global (time,
// kind, id) order) fires.
func (e *engine) run() {
	horizon := e.cfg.Duration
	for {
		if len(e.tourney.nodes) == 0 {
			break
		}
		sh := &e.shards[e.tourney.nodes[0].id]
		c := sh.cand
		id, t, kind := sh.base+int(c.id), c.key, c.kind
		if g, k, ok := e.wheel.minOf(e.now); ok && eventLess(k, kindWork, int(g), t, kind, id) {
			id, t, kind = int(g), k, kindWork
		}
		if re, ok := e.ringHead(); ok {
			// Compare the transfer candidate in the service coordinate —
			// (t - svcAt)·rate is monotone in t — so the division that
			// converts a completion mark to wall time is paid only when
			// the transfer actually wins the selection. Wall candidates
			// never carry kindXfer, so a tie in marks goes to the
			// transfer exactly when its kind orders first.
			take := false
			if re.target <= e.svc {
				take = eventLess(e.now, kindXfer, int(re.id), t, kind, id)
			} else if svcT := e.svc + (t-e.svcAt)*e.rateNow; re.target != svcT {
				take = re.target < svcT
			} else {
				take = kindXfer < kind
			}
			if take {
				xt := e.svcAt + (re.target-e.svc)/e.rateNow
				if xt < e.now {
					xt = e.now // guard the last-ulp of service arithmetic
				}
				id, t, kind = int(re.id), xt, kindXfer
			}
		}
		if t >= horizon {
			break
		}
		e.fire(id, kind, t)
	}
}

// ringHead returns the oldest live in-flight transfer, permanently
// skipping entries whose transfer was aborted (generation mismatch or
// a worker no longer on the link). Amortized O(1): every entry is
// pushed and skipped at most once.
func (e *engine) ringHead() (ringEntry, bool) {
	for e.rHead < len(e.ring) {
		re := e.ring[e.rHead]
		_, w := e.wref(int(re.id))
		if w.xferGen == re.gen && (w.state == wTransferring || w.state == wRecovering) {
			return re, true
		}
		e.rHead++
	}
	return ringEntry{}, false
}

// ringPush appends a started transfer, compacting the consumed prefix
// once it dominates the slice so ring memory stays proportional to the
// live transfer count.
func (e *engine) ringPush(re ringEntry) {
	if e.rHead > 1024 && e.rHead*2 >= len(e.ring) {
		n := copy(e.ring, e.ring[e.rHead:])
		e.ring = e.ring[:n]
		e.rHead = 0
	}
	e.ring = append(e.ring, re)
}

// ringPop consumes the fired transfer's entry (and any stale entries
// queued ahead of it, which monotone completion marks guarantee were
// aborted earlier).
func (e *engine) ringPop(id int) {
	for e.rHead < len(e.ring) {
		re := e.ring[e.rHead]
		e.rHead++
		if int(re.id) == id {
			_, w := e.wref(id)
			if re.gen == w.xferGen {
				return
			}
		}
	}
}

// movedMB reports how much of w's in-flight transfer has crossed the
// link, given the current cumulative service mark.
func (e *engine) movedMB(w *hotWorker) float64 {
	left := w.target - e.svc
	if left < 0 {
		left = 0
	}
	if left > e.mb {
		left = e.mb
	}
	return e.mb - left
}

// traceTransfer emits the span of a transfer that just ended — torn by
// a failure or run to completion — on the simulation clock.
func (e *engine) traceTransfer(id int, w *hotWorker, outcome string) {
	name := "transfer.checkpoint"
	if w.state == wRecovering {
		name = "transfer.recovery"
	}
	if w.flags&fMigrating != 0 {
		name = "transfer.migrate"
	}
	e.tr.SpanAt(e.pid, uint64(id)+1, name, w.started, e.now-w.started,
		obs.AttrFloat("mb", e.movedMB(w)),
		obs.AttrStr("outcome", outcome),
		obs.AttrBool("collided", e.lastMulti >= w.started))
}

// predTid is the predictor's trace lane for worker id: the alarm lanes
// sit in a band above the per-worker transfer lanes.
func (e *engine) predTid(id int) uint64 {
	return uint64(e.cfg.Workers) + uint64(id) + 1
}

// newPeriod draws the predictor alarms for id's freshly started
// availability period and schedules the first one. A disabled
// predictor draws nothing.
func (e *engine) newPeriod(id int) {
	sh, w := e.wref(id)
	w.flags &^= fPredTrue
	if e.pred == nil {
		return
	}
	l := id & e.mask
	sh.alarms[l] = e.pred.PeriodEvents(w.failAt-w.availStart, e.prng)
	sh.alarmIdx[l] = 0
	e.schedAlarm(id)
}

// schedAlarm refreshes id's calendar entry for its next pending alarm.
// Under the reactive policy alarms never enter the calendar: nothing
// acts on them, so they are settled in bulk when the failure lands —
// which keeps every clock advance, and therefore every float in the
// service arithmetic, bit-identical to a run with no predictor at all.
func (e *engine) schedAlarm(id int) {
	if !e.predInCal {
		return
	}
	sh, w := e.wref(id)
	l := id & e.mask
	if ai := int(sh.alarmIdx[l]); ai < len(sh.alarms[l]) {
		sh.predH.Update(l, w.availStart+sh.alarms[l][ai].At, kindPred)
	} else {
		sh.predH.Remove(l)
	}
	e.updateCand(id >> e.shift)
}

// firePred processes a predictor alarm. The alarm always counts; under
// the proactive and migrate policies it additionally interrupts an
// in-flight work interval (the worker cannot tell true alarms from
// false ones — that is what precision costs) and ships the image, as a
// checkpoint that commits the truncated interval or as a migration off
// the doomed machine. Workers mid-recovery, mid-transfer or queued have
// nothing new to save and let the alarm pass.
func (e *engine) firePred(id int) {
	sh, w := e.wref(id)
	l := id & e.mask
	ev := sh.alarms[l][sh.alarmIdx[l]]
	sh.alarmIdx[l]++
	e.schedAlarm(id)
	if e.res.Alarm(e.tr, e.pid, e.predTid(id), w.availStart+ev.At, ev) {
		w.flags |= fPredTrue
	}
	if e.cfg.Policy == predict.PolicyReactive || w.state != wWorking {
		return
	}
	w.topt = e.now - (w.workEnd - w.topt) // truncate to work done so far
	if e.cfg.Policy == predict.PolicyMigrate {
		w.flags |= fMigrating
	} else {
		w.flags |= fProactive
	}
	e.startTransfer(id, false)
}

// fire advances the clock to t and processes the selected event.
func (e *engine) fire(id int, kind uint8, t float64) {
	e.advance(t)
	switch kind {
	case kindFail:
		e.fail(id)
	case kindXfer:
		e.finishTransfer(id)
	case kindWork:
		e.startTransfer(id, false)
	case kindPred:
		e.firePred(id)
	}
	if e.nActive > 1 {
		e.lastMulti = e.now
	}
}

// finish closes the books, flushes the run's local tallies to the
// registry in a handful of atomic adds (heap-op counters are summed
// across shards first — one flush per run, not per shard or per
// event), and returns the result.
func (e *engine) finish() Result {
	total := float64(e.cfg.Workers) * e.cfg.Duration
	e.res.Efficiency = e.res.CommittedWork / total
	if e.xferCount > 0 {
		e.res.MeanTransferSec = e.xferSum / float64(e.xferCount)
	}
	e.tr.SpanAt(e.pid, 0, "run", 0, e.cfg.Duration,
		obs.AttrInt("workers", int64(e.cfg.Workers)),
		obs.AttrStr("stagger", e.cfg.Stagger.String()),
		obs.AttrFloat("efficiency", e.res.Efficiency),
		obs.AttrInt("commits", int64(e.res.Commits)),
		obs.AttrInt("failures", int64(e.res.Failures)))
	linkPeak.SetMax(int64(e.res.MaxConcurrent))
	return e.res
}

// setRate refreshes the cached rate; callers invoke it after every
// nActive change so the hot paths divide by it without recomputing.
// The expression matches LinkMBps / max(1, nActive) bit for bit.
func (e *engine) setRate() {
	if e.nActive > 1 {
		e.rateNow = e.cfg.LinkMBps / float64(e.nActive)
	} else {
		e.rateNow = e.cfg.LinkMBps
	}
}

// advance moves the clock to t, accruing service at the rate that has
// been in effect since the last event.
func (e *engine) advance(t float64) {
	if e.nActive > 0 {
		e.svc += (t - e.svcAt) * e.rateNow
	}
	e.svcAt = t
	e.now = t
}

// intervalAt serves the next work interval for a worker whose
// availability period has reached the given age, threading the
// worker's interval hint so consecutive commits skip the binary
// search.
func (e *engine) intervalAt(sh *shard, l int, age float64) float64 {
	T := e.solo
	switch {
	case e.fastOK:
		T = e.fastT
	case e.sched != nil:
		t, idx, extended, ok := e.sched.LookupFrom(age, int(sh.hints[l]))
		sh.hints[l] = int32(idx)
		switch {
		case !ok:
			e.res.ScheduleFallbacks++
		case extended && !e.memoryless:
			T = t
			e.res.ScheduleFallbacks++
		default:
			T = t
		}
	default:
		e.res.ScheduleFallbacks++
	}
	if e.cfg.Stagger == StaggerJitter {
		T *= 1 + 0.3*e.rng.Float64()
	}
	return T
}

// startTransfer either begins the transfer or, under the token policy
// with a busy link, parks the worker in the FIFO queue. Either way the
// worker stops working, so its interval entry (if any) leaves the
// wheel. Neither path touches the fail or alarm calendars, so the
// tournament is not consulted.
func (e *engine) startTransfer(id int, isRecovery bool) {
	_, w := e.wref(id)
	e.wheel.remove(id)
	if e.cfg.Stagger == StaggerToken && e.nActive > 0 {
		w.state = wQueued
		w.queuedSince = e.now
		w.queueSeq++
		if isRecovery {
			w.flags |= fWantRecovery
		} else {
			w.flags &^= fWantRecovery
		}
		e.queue = append(e.queue, queueEntry{id, int(w.queueSeq)})
		return
	}
	if isRecovery {
		w.state = wRecovering
	} else {
		w.state = wTransferring
	}
	w.started = e.now
	w.target = e.svc + e.mb
	w.xferGen++
	e.nActive++
	e.setRate()
	if e.nActive > e.res.MaxConcurrent {
		e.res.MaxConcurrent = e.nActive
	}
	if e.nActive > 1 {
		e.lastMulti = e.now
	}
	e.ringPush(ringEntry{target: w.target, id: int32(id), gen: w.xferGen})
}

// dequeue hands the free token to the longest-waiting queued worker
// (StaggerToken only). Entries whose worker failed while queued are
// stale (the failure re-enqueued it with a new sequence number) and
// are skipped.
func (e *engine) dequeue() {
	if e.cfg.Stagger != StaggerToken {
		return
	}
	for e.qHead < len(e.queue) {
		qe := e.queue[e.qHead]
		e.qHead++
		_, w := e.wref(qe.id)
		if w.state != wQueued || int(w.queueSeq) != qe.seq {
			continue
		}
		e.res.QueueWaitSec += e.now - w.queuedSince
		e.startTransfer(qe.id, w.flags&fWantRecovery != 0)
		return
	}
	e.queue = e.queue[:0]
	e.qHead = 0
}

func (e *engine) finishTransfer(id int) {
	sh, w := e.wref(id)
	l := id & e.mask
	if e.tr != nil {
		e.traceTransfer(id, w, "done")
	}
	e.res.MBMoved += e.mb
	e.xferSum += e.now - w.started
	e.xferCount++
	if e.lastMulti >= w.started {
		e.res.Collisions++
	}
	if w.state == wTransferring {
		e.res.CommittedWork += w.topt
		e.res.Commits++
	}
	e.ringPop(id)
	e.nActive--
	e.setRate()
	if w.flags&fMigrating != 0 {
		// Migration landed: the process leaves the doomed machine for a
		// fresh one. The abandoned period's pending alarms die with it
		// (no eviction is experienced there), the destination draws its
		// own lifetime and alarms, and the process recovers there.
		w.flags &^= fMigrating
		e.res.AddMigration(e.mb)
		w.availStart = e.now
		w.failAt = e.now + e.cfg.Avail.Rand(e.rng)
		sh.failH.Update(l, w.failAt, kindFail)
		e.updateCand(id >> e.shift)
		e.newPeriod(id)
		e.dequeue()
		e.startTransfer(id, true)
		return
	}
	if w.flags&fProactive != 0 {
		w.flags &^= fProactive
		e.res.ProactiveCheckpoints++
	}
	// Recovery or checkpoint done: begin the next work interval.
	age := e.now - w.availStart
	w.topt = e.intervalAt(sh, l, age)
	w.state = wWorking
	w.workEnd = e.now + w.topt
	e.wheel.insert(id, w.workEnd)
	e.dequeue()
}

func (e *engine) fail(id int) {
	sh, w := e.wref(id)
	l := id & e.mask
	e.res.Failures++
	if e.tr != nil {
		if w.state == wTransferring || w.state == wRecovering {
			e.traceTransfer(id, w, "interrupted")
		}
		e.tr.EventAt(e.pid, uint64(id)+1, "fail", e.now,
			obs.AttrFloat("age", e.now-w.availStart))
	}
	heldLink := false
	switch w.state {
	case wWorking:
		e.res.LostWork += w.topt - (w.workEnd - e.now)
		e.wheel.remove(id)
	case wTransferring:
		e.res.LostWork += w.topt
		e.res.MBMoved += e.movedMB(w)
		heldLink = true
	case wRecovering:
		e.res.MBMoved += e.movedMB(w)
		heldLink = true
	case wQueued:
		e.res.QueueWaitSec += e.now - w.queuedSince
		if w.flags&fWantRecovery == 0 {
			e.res.LostWork += w.topt // interval done but never stored
		}
	}
	if heldLink {
		// The ring entry goes stale: the restart below either bumps the
		// generation (immediate new transfer) or parks the worker in a
		// non-link state, and ringHead skips it either way.
		e.nActive--
		e.setRate()
	}
	// Settle the predictor's books for the period that just ended:
	// alarms scheduled at the eviction instant itself still fired, and
	// the eviction is a hit or a miss depending on whether a true alarm
	// preceded it.
	if e.pred != nil {
		e.res.Evict(e.tr, e.pid, e.predTid(id), w.availStart, e.now,
			sh.alarms[l][sh.alarmIdx[l]:], w.flags&fPredTrue != 0)
	}
	w.flags &^= fMigrating | fProactive
	// The machine comes back immediately in a fresh availability
	// period (busy gaps affect neither the link nor efficiency-of-
	// occupied-time accounting) and the process restarts with a
	// recovery.
	w.state = wWorking // neutral until startTransfer assigns one
	w.availStart = e.now
	w.failAt = e.now + e.cfg.Avail.Rand(e.rng)
	sh.failH.Update(l, w.failAt, kindFail)
	e.updateCand(id >> e.shift)
	e.newPeriod(id)
	if heldLink {
		// The token is free now; waiting workers go first, and the
		// failed process joins the back of the queue.
		e.dequeue()
	}
	e.startTransfer(id, true)
}
