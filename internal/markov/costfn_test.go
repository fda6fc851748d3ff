package markov

import (
	"errors"
	"math"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// TestNewCostsRejectsZero pins the degenerate-cost guard: a zero,
// negative, or non-finite checkpoint cost breaks the optimizer's
// bracket geometry and must be rejected with ErrZeroCost rather than
// silently producing a "checkpoint for free" model.
func TestNewCostsRejectsZero(t *testing.T) {
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewCosts(c, 100, 100)
		if err == nil {
			t.Errorf("NewCosts(%g, ...) accepted a degenerate checkpoint cost", c)
			continue
		}
		if !errors.Is(err, ErrZeroCost) {
			t.Errorf("NewCosts(%g, ...) error %v is not ErrZeroCost", c, err)
		}
	}
	if _, err := NewCosts(1e-9, 100, 100); err != nil {
		t.Errorf("tiny positive cost rejected: %v", err)
	}
}

func costFnDists() []dist.Distribution {
	return []dist.Distribution{
		dist.NewExponential(1.0 / 9000),
		dist.NewWeibull(0.43, 3409),
		dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{1.0 / 600, 1.0 / 30000}),
	}
}

// TestConstantCostFnMatchesNil pins the ISSUE's bit-exactness
// acceptance criterion: a cost curve that returns the constant C must
// reproduce the nil-CostFn (seed) arithmetic bit for bit — Γ values,
// T_opt abscissae and ratios.
func TestConstantCostFnMatchesNil(t *testing.T) {
	costs := mustCosts(t, 100, 100, 100)
	for _, d := range costFnDists() {
		base := Model{Avail: d, Costs: costs}
		wrapped := Model{Avail: d, Costs: costs, CostFn: func(T float64) float64 { return costs.C }}

		for _, age := range []float64{0, 250, 3409, 20000} {
			for _, T := range []float64{1, 30, 500, 2500, 50000} {
				if g0, g1 := base.Gamma(T, age), wrapped.Gamma(T, age); g0 != g1 {
					t.Errorf("%s: Gamma(T=%g, age=%g) constant CostFn %v != nil %v",
						d.Name(), T, age, g1, g0)
				}
			}
			t0, r0, err0 := base.Topt(age, OptimizeOptions{})
			t1, r1, err1 := wrapped.Topt(age, OptimizeOptions{})
			if (err0 == nil) != (err1 == nil) {
				t.Fatalf("%s age=%g: Topt error mismatch: %v vs %v", d.Name(), age, err0, err1)
			}
			if t0 != t1 || r0 != r1 {
				t.Errorf("%s age=%g: Topt constant CostFn (%v, %v) != nil (%v, %v)",
					d.Name(), age, t1, r1, t0, r0)
			}
		}
	}
}

// TestBuildScheduleRejectsCostFn: a schedule charges the constant C
// after every interval, so a model with a cost curve — even a constant
// one — is refused rather than planned against the wrong cost.
func TestBuildScheduleRejectsCostFn(t *testing.T) {
	costs := mustCosts(t, 100, 100, 100)
	for _, d := range costFnDists() {
		m := Model{Avail: d, Costs: costs, CostFn: func(float64) float64 { return costs.C }}
		if s, err := m.BuildSchedule(0, ScheduleOptions{}); err == nil {
			t.Errorf("%s: BuildSchedule with a CostFn returned %v, want an error", d.Name(), s)
		}
	}
}

// TestExpectedImagesReadsCostFn pins ExpectedImagesPerCommit to C(T),
// as At is: a curve returning c′ must give bitwise the images of a
// constant model with C = L = c′, mid-checkpoint window included.
func TestExpectedImagesReadsCostFn(t *testing.T) {
	const cPrime = 400.0
	costs := mustCosts(t, 100, 100, 100)
	for _, d := range costFnDists() {
		curve := Model{Avail: d, Costs: costs, CostFn: func(float64) float64 { return cPrime }}
		constant := Model{Avail: d, Costs: Costs{C: cPrime, R: costs.R, L: cPrime}}
		for _, age := range []float64{0, 250, 3409, 20000} {
			for _, T := range []float64{30, 500, 2500} {
				got, want := curve.ExpectedImagesPerCommit(T, age), constant.ExpectedImagesPerCommit(T, age)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s T=%g age=%g: images with CostFn %v, with C = L = %g %v",
						d.Name(), T, age, got, cPrime, want)
				}
			}
		}
	}
}

// TestCostFnSanitization pins costAt's fallback ladder: non-finite and
// non-positive curve values resolve to the constant C (bitwise: the
// whole model behaves as if no curve were set), and finite positive
// values below the floor are clamped to minVariableCost.
func TestCostFnSanitization(t *testing.T) {
	costs := mustCosts(t, 100, 100, 100)
	d := dist.NewWeibull(0.43, 3409)
	base := Model{Avail: d, Costs: costs}
	for name, fn := range map[string]CostFunc{
		"nan":      func(T float64) float64 { return math.NaN() },
		"posinf":   func(T float64) float64 { return math.Inf(1) },
		"neginf":   func(T float64) float64 { return math.Inf(-1) },
		"zero":     func(T float64) float64 { return 0 },
		"negative": func(T float64) float64 { return -5 },
	} {
		m := Model{Avail: d, Costs: costs, CostFn: fn}
		for _, T := range []float64{1, 500, 20000} {
			for _, age := range []float64{0, 3409} {
				if g0, g1 := base.Gamma(T, age), m.Gamma(T, age); g0 != g1 {
					t.Errorf("%s: Gamma(T=%g, age=%g) = %v, want constant-C %v", name, T, age, g1, g0)
				}
			}
		}
	}
	// A finite positive value below the floor clamps, not falls back.
	m := Model{Avail: d, Costs: costs, CostFn: func(T float64) float64 { return 1e-9 }}
	c, l := m.costAt(500)
	if c != minVariableCost || l != minVariableCost {
		t.Errorf("costAt with sub-floor curve = (%v, %v), want (%v, %v)",
			c, l, minVariableCost, minVariableCost)
	}
}

// TestGammaEvaluatorMatchesModelWithCostFn extends the hoisting
// invariant to the variable-cost path: the per-search evaluator must
// stay bitwise identical to Model.Gamma when a cost curve is set.
func TestGammaEvaluatorMatchesModelWithCostFn(t *testing.T) {
	costs := mustCosts(t, 100, 150, 120)
	fn := func(T float64) float64 { return 20 + 0.01*T }
	for _, d := range costFnDists() {
		m := Model{Avail: d, Costs: costs, CostFn: fn}
		for _, age := range []float64{0, 1, 250, 3409, 20000} {
			e := m.evaluator(age)
			for _, T := range []float64{1, 30, 500, 2500, 50000} {
				want := m.Gamma(T, age)
				if got := e.gamma(T); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("%s: gamma(T=%g, age=%g) evaluator %v != model %v",
						d.Name(), T, age, got, want)
				}
			}
		}
	}
}

// TestVariableCostShiftsTopt checks the curve actually steers the
// optimizer: against a cost that grows with the interval (delta
// checkpoints dirty more chunks over longer intervals), the chosen
// T_opt must differ from the constant-cost optimum and land between
// the optima of the curve's two extremes.
func TestVariableCostShiftsTopt(t *testing.T) {
	d := dist.NewExponential(1.0 / 9000)
	costs := mustCosts(t, 100, 100, 100)
	fn := func(T float64) float64 { return 10 + 0.05*T } // cheap short intervals
	m := Model{Avail: d, Costs: costs, CostFn: fn}
	tVar, rVar, err := m.Topt(0, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tConst, _, err := Model{Avail: d, Costs: costs}.Topt(0, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tVar == tConst {
		t.Errorf("variable cost curve left T_opt unchanged at %v", tVar)
	}
	if !(tVar > 0 && rVar > 0 && !math.IsInf(rVar, 1)) {
		t.Errorf("degenerate variable-cost optimum: T=%v ratio=%v", tVar, rVar)
	}
	// The curve's positive slope charges extra for lengthening the
	// interval, so the variable-cost optimum must sit below the optimum
	// of the constant cost matched at that very point, fn(tVar) — the
	// marginal-cost effect that a constant-C model cannot express.
	cAt := mustCosts(t, fn(tVar), 100, fn(tVar))
	matched, _, err := Model{Avail: d, Costs: cAt}.Topt(0, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tVar >= matched {
		t.Errorf("T_opt under increasing C(T) = %v not below matched-constant optimum %v", tVar, matched)
	}
}
