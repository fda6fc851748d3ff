// Package markov implements the paper's three-state Markov model of a
// single checkpoint interval (§3.5), generalizing Vaidya's
// checkpoint-overhead analysis (IEEE Trans. Computers, 1997) from the
// exponential to arbitrary availability distributions.
//
// States (Figure 2 of the paper):
//
//	0 — interval begins: (recover if needed,) compute for T, checkpoint for C
//	1 — interval committed: the checkpoint completed
//	2 — a failure occurred somewhere in the interval
//
// The state-0 transition quantities are evaluated under the
// future-lifetime distribution F_t conditioned on the resource's
// current age t (Eq. 8), while the state-2 quantities use the
// unconditional distribution because a failure has just reset the
// resource's age — this asymmetry is exactly what makes non-memoryless
// schedules aperiodic.
//
// Unlike the two classical simplifications the paper calls out, this
// model permits failures during both checkpointing and recovery, and
// it does not assume exponential availability.
package markov

import (
	"errors"
	"fmt"
	"math"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/mathx"
)

// Costs holds the fixed per-interval overhead parameters, all in
// seconds of (virtual) time.
type Costs struct {
	// C is the checkpoint cost: the time the application is blocked
	// while its state traverses the network to stable storage.
	C float64
	// R is the recovery cost: the time to re-fetch the last checkpoint
	// after a failure. The paper sets R = C throughout, matching its
	// Condor measurements.
	R float64
	// L is the checkpoint latency: how stale the last stable
	// checkpoint is when a failure interrupts an interval. With
	// sequential (blocking) checkpointing latency equals overhead, so
	// callers normally set L = C; NewCosts does this when L is zero
	// and C > 0.
	L float64
}

// ErrZeroCost reports a degenerate zero (or negative/non-finite)
// checkpoint cost. A zero C breaks the optimizer's bracket geometry
// (At assumes span0 = C + T has a positive cost component, and Γ/T
// degenerates toward "checkpoint continuously for free"), and in
// practice a measured zero means a fully deduped delta transfer — a
// lucky sample, not a cost model. Callers with measured costs should
// floor them before building Costs.
var ErrZeroCost = errors.New("markov: checkpoint cost must be positive")

// NewCosts builds Costs with the paper's conventions: if r < 0 it
// defaults to c (the paper's "C = R" assumption), and if l < 0 it
// defaults to c (sequential checkpointing). c must be strictly
// positive and finite; zero is rejected with ErrZeroCost.
func NewCosts(c, r, l float64) (Costs, error) {
	if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
		return Costs{}, fmt.Errorf("%w: got %g", ErrZeroCost, c)
	}
	if r < 0 {
		r = c
	}
	if l < 0 {
		l = c
	}
	return Costs{C: c, R: r, L: l}, nil
}

// CostFunc maps a work-interval length T (seconds) to the checkpoint
// cost C(T) (seconds). Delta checkpointing makes the cost genuinely
// interval-dependent: a longer interval dirties more chunks, so more
// bytes cross the wire. The function must be deterministic — the
// optimizer probes it dozens of times per age and the schedule-cache
// contracts assume identical inputs give identical schedules.
type CostFunc func(T float64) float64

// minVariableCost floors sanitized CostFunc values. A measured or
// modeled cost can legitimately approach zero (a fully deduped delta),
// but the optimizer's bracket geometry needs a positive cost span —
// the same degeneracy NewCosts rejects for constant C.
const minVariableCost = 1e-3

// Model evaluates the Markov chain for one availability distribution
// and one set of overhead costs.
type Model struct {
	// Avail is the (unconditional) availability distribution of the
	// resource.
	Avail dist.Distribution
	// Costs are the checkpoint/recovery/latency overheads.
	Costs Costs
	// CostFn, when non-nil, generalizes the constant checkpoint cost
	// to C(T): every place the chain consumes Costs.C (and Costs.L,
	// since sequential checkpointing keeps latency equal to overhead)
	// evaluates CostFn(T) instead, sanitized by costAt. Costs.R is
	// untouched — recovery always re-fetches a full image, so its cost
	// does not shrink with delta encoding. A nil CostFn reproduces the
	// constant-C arithmetic bit for bit.
	CostFn CostFunc
}

// costAt resolves the checkpoint cost and latency for interval T.
// With no cost curve configured it returns the constant Costs values
// unchanged — the loads feed the exact same expressions as before, so
// the constant path stays bitwise identical to the pre-CostFn model.
// With a curve, non-finite or non-positive values fall back to the
// constant C (the curve is advisory; the constant is the contract),
// and finite positive values are floored at minVariableCost.
func (m Model) costAt(T float64) (c, l float64) {
	if m.CostFn == nil {
		return m.Costs.C, m.Costs.L
	}
	v := m.CostFn(T)
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		v = m.Costs.C
	}
	if v < minVariableCost {
		v = minVariableCost
	}
	return v, v
}

// Transitions holds the transition probabilities P_ij and expected
// sojourn costs K_ij of the three-state chain for a particular work
// interval T and resource age.
type Transitions struct {
	P01, K01 float64 // interval succeeds: survive C+T under F_age
	P02, K02 float64 // interval fails: failure time conditional mean
	P21, K21 float64 // restart succeeds: survive L+R+T (unconditional)
	P22, K22 float64 // restart fails again
}

// At computes the transition quantities for work interval T when the
// resource has been available for age seconds. T must be positive.
func (m Model) At(T, age float64) Transitions {
	var tr Transitions
	ckptC, ckptL := m.costAt(T)

	// State 0 under the future-lifetime distribution.
	span0 := ckptC + T
	var pm float64
	tr.P01, pm = dist.NewConditional(m.Avail, age).At(span0)
	tr.K01 = span0
	tr.P02 = 1 - tr.P01
	if tr.P02 > 0 {
		tr.K02 = pm / tr.P02
	}

	// State 2 under the unconditional distribution (age has reset).
	span2 := ckptL + m.Costs.R + T
	tr.P21 = m.Avail.Survival(span2)
	tr.K21 = span2
	tr.P22 = 1 - tr.P21
	if tr.P22 > 0 {
		tr.K22 = m.Avail.PartialMoment(span2) / tr.P22
	}
	return tr
}

// Gamma returns Γ, the expected wall-clock time to advance from state
// 0 to state 1 — i.e. to commit one work interval of length T — when
// the resource has been available for age seconds (Eq. 11):
//
//	Γ = P01·K01 + P02·(K02 + K22·P22/P21 + K21)
//
// (the paper's "K20" term is a typographical slip for K21: the closed
// form follows from E2 = P21·K21 + P22·(K22 + E2)). Gamma returns +Inf
// when the restart loop cannot terminate (P21 = 0).
func (m Model) Gamma(T, age float64) float64 {
	if T <= 0 {
		return math.Inf(1)
	}
	tr := m.At(T, age)
	if tr.P02 <= 0 {
		// Failure within the interval is impossible; the interval
		// always commits in C+T.
		return tr.K01
	}
	if tr.P21 <= 0 {
		return math.Inf(1)
	}
	e2 := tr.K21 + tr.K22*tr.P22/tr.P21
	return tr.P01*tr.K01 + tr.P02*(tr.K02+e2)
}

// OverheadRatio returns Γ(T)/T, the expected wall-clock cost per unit
// of useful work. Its minimizer is the optimal work interval.
func (m Model) OverheadRatio(T, age float64) float64 {
	g := m.Gamma(T, age)
	if math.IsInf(g, 1) {
		return g
	}
	return g / T
}

// Efficiency returns T/Γ(T), the expected fraction of wall-clock time
// spent on useful work for interval length T — the quantity averaged
// in the paper's Figure 3 and Table 1.
func (m Model) Efficiency(T, age float64) float64 {
	return 1 / m.OverheadRatio(T, age)
}

// OptimizeOptions tunes the T_opt search.
type OptimizeOptions struct {
	// TMin and TMax bound the search (seconds). Defaults: 1 and 30
	// days.
	TMin, TMax float64
	// GridPoints is the size of the coarse geometric scan that
	// brackets the golden-section refinement. Default 64.
	GridPoints int
	// Tol is the relative tolerance on T_opt. Default 1e-6.
	Tol float64
}

func (o *OptimizeOptions) setDefaults() {
	if o.TMin <= 0 {
		o.TMin = 1
	}
	if o.TMax <= o.TMin {
		o.TMax = 30 * 24 * 3600
	}
	if o.GridPoints <= 0 {
		o.GridPoints = 64
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
}

// ErrDegenerate is returned when no finite-overhead work interval
// exists (e.g. the restart loop cannot complete for any T in range).
var ErrDegenerate = errors.New("markov: no feasible work interval")

// Topt finds the work interval T minimizing the overhead ratio Γ(T)/T
// for a resource of the given age, using a coarse geometric scan
// followed by Golden Section refinement (§3.5 uses Golden Section
// Search from Numerical Recipes).
func (m Model) Topt(age float64, opts OptimizeOptions) (T, ratio float64, err error) {
	T, ratio, _, err = m.toptCount(age, opts, metrics.goldenEvals != nil)
	return T, ratio, err
}

// toptCount is Topt plus the number of objective evaluations the
// search performed — the virtual time axis of BuildSchedule's trace
// spans. evals is 0 unless count is set (the eval counter or the
// build's tracer is live); the wrapper is skipped entirely otherwise.
func (m Model) toptCount(age float64, opts OptimizeOptions, count bool) (T, ratio float64, evals uint64, err error) {
	opts.setDefaults()
	e := m.evaluator(age)
	f := e.ratio
	var n uint64
	if count {
		f = countedRatio(f, &n)
	}
	T, ratio = mathx.MinimizeScanGolden(f, opts.TMin, opts.TMax, opts.GridPoints, opts.Tol)
	metrics.goldenEvals.Add(n)
	if math.IsInf(ratio, 1) || math.IsNaN(ratio) {
		return 0, 0, n, ErrDegenerate
	}
	return T, ratio, n, nil
}

// warmMinSurvival bounds where the warm-start search is trusted. Deep
// in the availability law's tail (S(age) below this), the conditional
// Γ arithmetic divides by a vanishing survival mass: the objective
// flattens into numerical noise, grows spurious basins, and its global
// argmin can jump far beyond any local window — the one regime where
// tracking the previous optimum silently diverges from the full scan.
// The cold 64-point scan is the reference there.
const warmMinSurvival = 1e-6

// toptWarm is the warm-start variant of Topt used by BuildSchedule: it
// seeds the search from prev, the optimal interval found at the
// previous (nearby) age, and evaluates only a narrow window of the
// geometric grid. ok is false when the warm bracket cannot be
// certified — the window best sat on a window edge, the window ratio
// was degenerate, or the age is so deep in the availability tail that
// the objective is numerically untrustworthy — and the caller must
// fall back to the cold Topt scan. A warm result, when ok, matches the
// cold scan bitwise whenever T_opt has drifted by less than the window
// width. count is toptCount's.
func (m Model) toptWarm(age, prev float64, opts OptimizeOptions, count bool) (T, ratio float64, evals uint64, ok bool) {
	opts.setDefaults()
	e := m.evaluator(age)
	if !(e.cond.AgeSurvival() >= warmMinSurvival) {
		return 0, 0, 0, false
	}
	f := e.ratio
	var n uint64
	if count {
		f = countedRatio(f, &n)
	}
	T, ratio, ok = mathx.MinimizeWarmScanGolden(f, opts.TMin, opts.TMax, opts.GridPoints, opts.Tol, prev)
	metrics.goldenEvals.Add(n)
	if !ok || math.IsInf(ratio, 1) || math.IsNaN(ratio) {
		return 0, 0, n, false
	}
	return T, ratio, n, true
}

// gammaEvaluator computes Γ(T) at one fixed resource age. Its
// dist.Conditional evaluates the base law at the age once, outside
// the per-T loop: every T_opt search probes Γ dozens of times at the
// same age. What is left per probe is two dist.Point evaluations of
// the base law, one at age+span0 (inside Conditional.At) and one at
// span2, each a single pass over the family's exponentials or powers.
//
// The arithmetic below reproduces Model.Gamma exactly: the same
// state-0 values (At is the one source of both) and the same state-2
// base values (dist.Point returns the three methods' results bit for
// bit), combined by the same expressions in the same order, so
// optimizers driven by the evaluator return bit-identical abscissae
// and ratios. That invariant is what lets the caching claim "identical
// table and figure numbers"; any change here must preserve it or the
// determinism tests fail.
type gammaEvaluator struct {
	m    Model
	cond dist.Conditional
}

// evaluator precomputes the age-fixed quantities for Γ evaluation at
// the given age (clamped to zero by dist.NewConditional).
func (m Model) evaluator(age float64) gammaEvaluator {
	return gammaEvaluator{m: m, cond: dist.NewConditional(m.Avail, age)}
}

// gamma evaluates Γ(T) with the cached age terms; it mirrors
// Model.Gamma exactly.
func (e gammaEvaluator) gamma(T float64) float64 {
	if T <= 0 {
		return math.Inf(1)
	}
	m := e.m
	ckptC, ckptL := m.costAt(T)

	// State 0 under the future-lifetime distribution; pm is the
	// conditional partial moment at span0.
	span0 := ckptC + T
	K01 := span0
	P01, pm := e.cond.At(span0)
	P02 := 1 - P01
	if P02 <= 0 {
		return K01
	}
	K02 := pm / P02

	// State 2 under the unconditional distribution (age has reset).
	span2 := ckptL + m.Costs.R + T
	P21, _, pm2 := dist.Point(m.Avail, span2)
	if P21 <= 0 {
		return math.Inf(1)
	}
	K21 := span2
	P22 := 1 - P21
	var K22 float64
	if P22 > 0 {
		K22 = pm2 / P22
	}
	e2 := K21 + K22*P22/P21
	return P01*K01 + P02*(K02+e2)
}

// ratio evaluates Γ(T)/T, the optimization objective.
func (e gammaEvaluator) ratio(T float64) float64 {
	g := e.gamma(T)
	if math.IsInf(g, 1) {
		return g
	}
	return g / T
}
