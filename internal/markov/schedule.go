package markov

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// Schedule is an aperiodic checkpoint schedule: the sequence of
// optimal work intervals T_opt(0), T_opt(1), … computed from the start
// of an uninterrupted availability period (§3.5). Interval i begins
// when the resource has age Ages[i] and lasts Intervals[i] seconds,
// followed by a checkpoint of C seconds.
//
// The schedule is valid for as long as the resource stays up; after a
// failure a new schedule must be computed (the resource's age resets).
type Schedule struct {
	// Intervals[i] is T_opt(i) in seconds.
	Intervals []float64
	// Ages[i] is the resource age at which interval i begins.
	Ages []float64
	// Ratios[i] is the expected overhead ratio Γ/T at T_opt(i).
	Ratios []float64
	// Costs echoes the overhead parameters the schedule was built for.
	Costs Costs

	// bounds caches Ages[i] + Intervals[i] + Costs.C — the age at which
	// interval i's checkpoint completes — so lookups can index instead
	// of scanning. BuildSchedule fills it eagerly; schedules arriving by
	// other routes (JSON decoding, literals) build it on first lookup,
	// guarded by boundsOnce so concurrent Lookup calls on a decoded
	// schedule never race on the rebuild. The exported fields are
	// treated as immutable once the first Lookup runs.
	//
	// lut is a quantized index over bounds: lut[q] is the first interval
	// still in effect at age q·lutStep, so a lookup lands within a
	// bucket of its answer in O(1) and walks forward at most the few
	// intervals sharing that bucket — constant time in practice where a
	// binary search pays ~log2(n) dependent probes. The table is sized
	// to roughly one bucket per interval (capped), making the average
	// walk about one step.
	boundsOnce sync.Once
	bounds     []float64
	lut        []int32
	invStep    float64 // buckets per second of age
}

// Len returns the number of planned intervals.
func (s *Schedule) Len() int { return len(s.Intervals) }

// Horizon returns the resource age at which the last planned interval
// (plus its checkpoint) completes.
func (s *Schedule) Horizon() float64 {
	n := len(s.Intervals)
	if n == 0 {
		return 0
	}
	return s.Ages[n-1] + s.Intervals[n-1] + s.Costs.C
}

// IntervalAt returns the planned work interval in effect for a
// resource of the given age, extending the schedule's final interval
// if age lies beyond the planned horizon. ok is false for an empty
// schedule.
//
// The lookup binary-searches the cached interval-end boundaries, so a
// 10⁴-interval aperiodic schedule answers in ~14 comparisons. For
// BuildSchedule output the boundaries are strictly increasing (each
// interval starts where the previous checkpoint finished), which is
// the invariant the search relies on.
func (s *Schedule) IntervalAt(age float64) (T float64, ok bool) {
	T, _, ok = s.Lookup(age)
	return T, ok
}

// Lookup is IntervalAt plus provenance: extended reports whether age
// lies beyond the planned horizon, in which case the returned interval
// is the final planned one extended indefinitely. Consumers that reuse
// one schedule across a long simulation (internal/parallel) use the
// flag to count how often they ran off the plan instead of silently
// treating extensions as planned intervals. For a memoryless model
// BuildSchedule plans a single interval on purpose, so extensions are
// the expected steady state there, not a fallback.
//
// Lookup (and IntervalAt) is safe for concurrent use on any schedule:
// BuildSchedule output carries an eagerly built boundary cache, and a
// schedule that arrived by JSON decoding or literal construction
// builds it exactly once under a sync.Once on first lookup.
func (s *Schedule) Lookup(age float64) (T float64, extended, ok bool) {
	T, _, extended, ok = s.LookupFrom(age, -1)
	return T, extended, ok
}

// LookupFrom is Lookup plus a position hint for hot loops: idx is the
// planned interval the returned T came from (n-1 when extended), and
// feeding it back as the hint on the next call serves lookups whose
// age lands in the same interval without touching the index. Any hint
// value is safe — an out-of-range or stale hint only costs the
// fast-path check — so callers can seed with -1 and then blindly
// thread idx through. Consumers simulating many workers against one
// shared schedule (internal/parallel keeps one hint per worker) serve
// the rest of their lookups from the quantized index in O(1).
func (s *Schedule) LookupFrom(age float64, hint int) (T float64, idx int, extended, ok bool) {
	n := len(s.Intervals)
	if n == 0 {
		return 0, 0, false, false
	}
	s.ensureBounds()
	b := s.bounds
	if hint >= 0 && hint < n && age < b[hint] && (hint == 0 || age >= b[hint-1]) {
		return s.Intervals[hint], hint, false, true
	}
	if age >= b[n-1] {
		return s.Intervals[n-1], n - 1, true, true
	}
	// The bucket holding age starts near the answer; the two walks make
	// the result exact regardless of the quantization arithmetic (the
	// backward one fires only when bucket rounding overshot by an ulp),
	// so the index is purely advisory — typically one step total.
	i := 0
	if age > 0 {
		if q := int(age * s.invStep); q < len(s.lut) {
			i = int(s.lut[q])
		} else {
			i = n - 1 // age*invStep rounded past the end: last bound is > age
		}
	}
	for i > 0 && age < b[i-1] {
		i--
	}
	for age >= b[i] {
		i++
	}
	return s.Intervals[i], i, false, true
}

// ensureBounds builds the boundary cache exactly once. Both
// BuildSchedule (eagerly) and Lookup (lazily, for decoded schedules)
// funnel through the same Once, so the cache is never written twice
// and never written concurrently with a read.
func (s *Schedule) ensureBounds() { s.boundsOnce.Do(s.rebuildBounds) }

// rebuildBounds recomputes the interval-end boundary cache and its
// quantized index from the exported fields.
func (s *Schedule) rebuildBounds() {
	n := len(s.Intervals)
	b := make([]float64, n)
	for i := range s.Intervals {
		b[i] = s.Ages[i] + s.Intervals[i] + s.Costs.C
	}
	s.bounds = b
	if n == 0 || b[n-1] <= 0 {
		return
	}
	size := 1
	for size < n && size < 1<<16 {
		size <<= 1
	}
	s.invStep = float64(size) / b[n-1]
	step := b[n-1] / float64(size)
	lut := make([]int32, size)
	i := 0
	for q := range lut {
		for i < n-1 && b[i] <= float64(q)*step {
			i++
		}
		lut[q] = int32(i)
	}
	s.lut = lut
}

// String renders the first few intervals for human inspection.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Schedule(C=%.4g, R=%.4g; %d intervals", s.Costs.C, s.Costs.R, len(s.Intervals))
	for i := 0; i < len(s.Intervals) && i < 6; i++ {
		fmt.Fprintf(&b, "; T%d=%.4g@age=%.4g", i, s.Intervals[i], s.Ages[i])
	}
	if len(s.Intervals) > 6 {
		b.WriteString("; …")
	}
	b.WriteString(")")
	return b.String()
}

// ScheduleOptions tunes BuildSchedule.
type ScheduleOptions struct {
	// Optimize tunes each per-interval T_opt search.
	Optimize OptimizeOptions
	// Horizon stops planning once the schedule covers this resource
	// age (seconds). Default: 7 days.
	Horizon float64
	// MaxIntervals caps the schedule length. Default: 10000.
	MaxIntervals int
	// Trace, when set, records one "markov.build_schedule" span with a
	// "markov.topt" child per interval on lane (TracePid, tid 0), timed
	// on a virtual axis of cumulative objective evaluations within the
	// build — wall time would make CLI traces irreproducible (DESIGN.md
	// §12). Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// TracePid is the trace lane the build emits on; 0 means lane 1.
	// Builds running concurrently must be given distinct lanes for the
	// export to be deterministic.
	TracePid uint64
	// TraceAttrs are added to the build span, after its own start_age,
	// model and c — the caller's names for what it plans (a machine).
	TraceAttrs []obs.Attr
}

func (o *ScheduleOptions) setDefaults() {
	o.Optimize.setDefaults()
	if o.Horizon <= 0 {
		o.Horizon = 7 * 24 * 3600
	}
	if o.MaxIntervals <= 0 {
		o.MaxIntervals = 10000
	}
}

// BuildSchedule computes the aperiodic schedule of T_opt values for a
// resource whose availability follows m.Avail and that has already
// been available for startAge seconds (the paper's T_elapsed).
//
// T_opt(0) is optimized at age startAge; each successive T_opt(i) is
// optimized at the age the resource will have reached if all previous
// intervals commit (age accrues work plus checkpoint time). For a
// memoryless (exponential) model every interval is identical and the
// schedule is effectively periodic.
//
// A schedule charges the constant Costs.C after every interval, so a
// model with a CostFn is rejected: its intervals are planned one at a
// time with Topt, as the live delta sessions do.
func (m Model) BuildSchedule(startAge float64, opts ScheduleOptions) (*Schedule, error) {
	if m.CostFn != nil {
		return nil, errors.New("markov: BuildSchedule charges a constant C; plan a model with a CostFn with Topt")
	}
	opts.setDefaults()
	if startAge < 0 {
		startAge = 0
	}
	s := &Schedule{Costs: m.Costs}
	age := startAge
	prevT := 0.0
	warmHits, coldScans := 0, 0

	tr, pid := opts.Trace, opts.TracePid
	if tr != nil && pid == 0 {
		pid = 1
	}
	count := tr != nil || metrics.goldenEvals != nil
	var evalAxis uint64
	var bsp *obs.Span
	if tr != nil {
		bsp = tr.StartSpanAt(pid, 0, "markov.build_schedule", 0).SetAttr(
			obs.AttrFloat("start_age", startAge),
			obs.AttrStr("model", m.Avail.Name()),
			obs.AttrFloat("c", m.Costs.C)).SetAttr(opts.TraceAttrs...)
	}

	for len(s.Intervals) < opts.MaxIntervals {
		// Warm-start: T_opt drifts slowly with age, so seed the search
		// from the previous interval's optimum and evaluate only a
		// narrow grid window. The warm bracket is discarded (cold
		// rescan) whenever its best point lands on a window edge, so a
		// fast-moving or multi-modal objective falls back to the full
		// 64-point geometric scan and results never depend on the seed.
		var (
			T, ratio     float64
			warm         bool
			warmN, coldN uint64
		)
		if prevT > 0 {
			T, ratio, warmN, warm = m.toptWarm(age, prevT, opts.Optimize, count)
		}
		if warm {
			warmHits++
		} else {
			coldScans++
			var err error
			T, ratio, coldN, err = m.toptCount(age, opts.Optimize, count)
			if err != nil {
				if len(s.Intervals) > 0 {
					break // keep what we have; later ages degenerate
				}
				return nil, err
			}
		}
		if tr != nil {
			mode, n := "cold", warmN+coldN
			if warm {
				mode = "warm"
			}
			tr.SpanAt(pid, 0, "markov.topt", float64(evalAxis), float64(n),
				obs.AttrStr("mode", mode),
				obs.AttrFloat("age", age),
				obs.AttrFloat("t_opt", T),
				obs.AttrInt("evals", int64(n)))
			evalAxis += n
		}
		s.Intervals = append(s.Intervals, T)
		s.Ages = append(s.Ages, age)
		s.Ratios = append(s.Ratios, ratio)
		prevT = T
		age += T + m.Costs.C
		if age >= opts.Horizon {
			break
		}
		if dist.IsMemoryless(m.Avail) {
			// All further intervals are identical; IntervalAt extends
			// the last interval indefinitely.
			break
		}
	}
	s.ensureBounds()
	bsp.SetAttr(
		obs.AttrInt("intervals", int64(len(s.Intervals))),
		obs.AttrInt("warm_hits", int64(warmHits)),
		obs.AttrInt("cold_scans", int64(coldScans)),
	).EndAt(float64(evalAxis))
	metrics.builds.Inc()
	return s, nil
}
