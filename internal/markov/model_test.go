package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	return diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func mustCosts(t *testing.T, c, r, l float64) Costs {
	t.Helper()
	cs, err := NewCosts(c, r, l)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func testModels(t *testing.T) []Model {
	t.Helper()
	costs := mustCosts(t, 100, 100, 100)
	return []Model{
		{Avail: dist.NewExponential(1.0 / 9000), Costs: costs},
		{Avail: dist.NewWeibull(0.43, 3409), Costs: costs},
		{Avail: dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{1.0 / 600, 1.0 / 30000}), Costs: costs},
	}
}

func TestNewCostsDefaults(t *testing.T) {
	c, err := NewCosts(120, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if c.R != 120 || c.L != 120 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if _, err := NewCosts(-1, 0, 0); err == nil {
		t.Error("negative C should error")
	}
	c2, err := NewCosts(50, 75, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.R != 75 || c2.L != 0 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

func TestTransitionsAreProbabilities(t *testing.T) {
	for _, m := range testModels(t) {
		m := m
		f := func(T, age float64) bool {
			T = 1 + math.Abs(math.Mod(T, 50000))
			age = math.Abs(math.Mod(age, 100000))
			tr := m.At(T, age)
			ok := almostEqual(tr.P01+tr.P02, 1, 1e-10) &&
				almostEqual(tr.P21+tr.P22, 1, 1e-10) &&
				tr.P01 >= 0 && tr.P02 >= 0 && tr.P21 >= 0 && tr.P22 >= 0
			// Conditional failure times cannot exceed the interval span.
			if tr.P02 > 1e-12 {
				ok = ok && tr.K02 <= tr.K01+1e-9 && tr.K02 >= 0
			}
			if tr.P22 > 1e-12 {
				ok = ok && tr.K22 <= tr.K21+1e-9 && tr.K22 >= 0
			}
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", m.Avail.Name(), err)
		}
	}
}

func TestGammaLowerBound(t *testing.T) {
	// Committing an interval takes at least C+T, so Γ >= C+T and the
	// efficiency never exceeds T/(T+C).
	for _, m := range testModels(t) {
		m := m
		f := func(T, age float64) bool {
			T = 1 + math.Abs(math.Mod(T, 20000))
			age = math.Abs(math.Mod(age, 50000))
			g := m.Gamma(T, age)
			if g < m.Costs.C+T-1e-9 {
				return false
			}
			eff := m.Efficiency(T, age)
			return eff > 0 && eff <= T/(T+m.Costs.C)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", m.Avail.Name(), err)
		}
	}
}

func TestGammaInvalidT(t *testing.T) {
	m := testModels(t)[0]
	if !math.IsInf(m.Gamma(0, 0), 1) || !math.IsInf(m.Gamma(-5, 0), 1) {
		t.Error("Gamma at non-positive T should be +Inf")
	}
}

// remainingLife draws the remaining lifetime of a resource that has
// been available for age seconds, by inverse transform through the
// base quantile: F_t⁻¹(u) = F⁻¹(F(t) + u·S(t)) − t. It reads only the
// base law's CDF, Survival and Quantile, so the Monte Carlo oracles
// below stay independent of dist.Conditional, which Γ uses.
func remainingLife(d dist.Distribution, age float64, rng *rand.Rand) float64 {
	u := rng.Float64()
	s := d.Survival(age)
	if u <= 0 || s <= 0 {
		return 0
	}
	return d.Quantile(d.CDF(age)+u*s) - age
}

// monteCarloGamma estimates the expected time to commit one interval
// by direct simulation of the chain the equations describe: the first
// attempt needs C+T uninterrupted under the age-conditioned law; each
// retry needs L+R+T uninterrupted under the unconditional law.
func monteCarloGamma(m Model, T, age float64, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	span0 := m.Costs.C + T
	span2 := m.Costs.L + m.Costs.R + T
	total := 0.0
	for range n {
		life := remainingLife(m.Avail, age, rng)
		if life >= span0 {
			total += span0
			continue
		}
		total += life
		for {
			life = m.Avail.Rand(rng)
			if life >= span2 {
				total += span2
				break
			}
			total += life
		}
	}
	return total / float64(n)
}

func TestGammaMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation skipped in -short mode")
	}
	for _, m := range testModels(t) {
		for _, tc := range []struct{ T, age float64 }{
			{500, 0}, {500, 700}, {2000, 5000}, {50, 0},
		} {
			want := m.Gamma(tc.T, tc.age)
			got := monteCarloGamma(m, tc.T, tc.age, 400000, 99)
			if !almostEqual(got, want, 0.02) {
				t.Errorf("%s T=%g age=%g: Γ=%g, Monte Carlo %g",
					m.Avail.Name(), tc.T, tc.age, want, got)
			}
		}
	}
}

func TestExponentialToptIsAgeIndependent(t *testing.T) {
	m := Model{Avail: dist.NewExponential(1.0 / 9000), Costs: mustCosts(t, 100, 100, 100)}
	t0, _, err := m.Topt(0, OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range []float64{10, 1000, 50000} {
		ti, _, err := m.Topt(age, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(ti, t0, 1e-3) {
			t.Errorf("memoryless T_opt drifted with age %g: %g vs %g", age, ti, t0)
		}
	}
}

func TestToptIsALocalMinimum(t *testing.T) {
	for _, m := range testModels(t) {
		for _, age := range []float64{0, 300, 8000} {
			T, ratio, err := m.Topt(age, OptimizeOptions{})
			if err != nil {
				t.Fatalf("%s: %v", m.Avail.Name(), err)
			}
			for _, factor := range []float64{0.5, 0.8, 1.25, 2} {
				other := m.OverheadRatio(T*factor, age)
				if other < ratio-1e-9 {
					t.Errorf("%s age=%g: ratio(%g·T_opt)=%g < ratio(T_opt)=%g",
						m.Avail.Name(), age, factor, other, ratio)
				}
			}
		}
	}
}

func TestToptIncreasesWithCheckpointCost(t *testing.T) {
	// Costlier checkpoints must push the optimizer toward longer work
	// intervals (classic checkpoint-interval behavior).
	avail := dist.NewExponential(1.0 / 9000)
	prev := 0.0
	for _, c := range []float64{10, 50, 200, 800} {
		m := Model{Avail: avail, Costs: mustCosts(t, c, c, c)}
		T, _, err := m.Topt(0, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if T <= prev {
			t.Errorf("T_opt(%g) = %g not greater than %g", c, T, prev)
		}
		prev = T
	}
}

func TestToptGrowsWithAgeForHeavyTail(t *testing.T) {
	// Decreasing hazard: the longer the machine has been up, the
	// longer it will stay up, so intervals stretch — the paper's core
	// aperiodic-schedule mechanism. (At very small ages the infant-
	// mortality spike makes T_opt non-monotone — failure is likely no
	// matter what, so longer T amortizes C better — hence this test
	// starts in the asymptotic regime.)
	m := Model{Avail: dist.NewWeibull(0.43, 3409), Costs: mustCosts(t, 100, 100, 100)}
	prevT := 0.0
	for _, age := range []float64{1000, 10000, 100000, 1000000} {
		T, _, err := m.Topt(age, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if T <= prevT {
			t.Errorf("heavy-tail T_opt not increasing: age %g gives %g (prev %g)", age, T, prevT)
		}
		prevT = T
	}
}

func TestToptYoungApproximation(t *testing.T) {
	// For exponential failures with mean M the classical first-order
	// optimum is Young's √(2CM); Daly's higher-order estimate,
	// √(2CM)·[1 + ⅓√(C/2M) + ⅑(C/2M)] − C, is an independent derivation
	// that stays accurate as C grows towards M. The full model must
	// agree with it within 0.1 % wherever C ≤ M/10 (the worst cell,
	// C = M/10, is at 0.04 %; Young's own error there is 17 %) and
	// within 1 % at C = M/2, where Daly's series has visibly run out of
	// terms (0.55 %).
	check := func(mtbf, c, tol float64) {
		m := Model{Avail: dist.NewExponential(1 / mtbf), Costs: mustCosts(t, c, c, c)}
		T, _, err := m.Topt(0, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := c / (2 * mtbf)
		daly := math.Sqrt(2*c*mtbf)*(1+math.Sqrt(x)/3+x/9) - c
		if math.Abs(T-daly) > tol*daly {
			t.Errorf("M = %g, C = %g: T_opt = %g, Daly's optimum %g (off by %.3f %%, want within %g %%)",
				mtbf, c, T, daly, 100*(T-daly)/daly, 100*tol)
		}
	}
	for _, mtbf := range []float64{1e3, 1e4, 1e5, 1e6} {
		for _, c := range []float64{1, 10, 100, 500} {
			if c <= mtbf/10 {
				check(mtbf, c, 0.001)
			}
		}
		check(mtbf, mtbf/2, 0.01)
	}
}

func TestToptDegenerate(t *testing.T) {
	// A resource whose lifetime is (almost) never longer than L+R+T
	// for any T in range cannot complete a restart: the optimizer must
	// report degeneracy rather than return a bogus interval.
	m := Model{
		Avail: dist.NewWeibull(8, 10), // lifetimes tightly around 10 s
		Costs: mustCosts(t, 500, 500, 500),
	}
	_, _, err := m.Topt(0, OptimizeOptions{TMin: 1, TMax: 1000})
	if err == nil {
		t.Error("expected ErrDegenerate for impossible restart")
	}
}

func TestGammaMonotoneInCosts(t *testing.T) {
	// Costlier checkpoints and recoveries can only slow the chain
	// down: Γ is nondecreasing in C and in R at fixed T and age.
	avail := dist.NewWeibull(0.43, 3409)
	f := func(T, age, c1, c2 float64) bool {
		T = 10 + math.Abs(math.Mod(T, 5000))
		age = math.Abs(math.Mod(age, 20000))
		c1 = 1 + math.Abs(math.Mod(c1, 2000))
		c2 = 1 + math.Abs(math.Mod(c2, 2000))
		lo, hi := math.Min(c1, c2), math.Max(c1, c2)
		// In C (R fixed).
		gLo := Model{Avail: avail, Costs: Costs{C: lo, R: 100, L: 100}}.Gamma(T, age)
		gHi := Model{Avail: avail, Costs: Costs{C: hi, R: 100, L: 100}}.Gamma(T, age)
		if gLo > gHi+1e-6 {
			return false
		}
		// In R (C fixed).
		gLo = Model{Avail: avail, Costs: Costs{C: 100, R: lo, L: 100}}.Gamma(T, age)
		gHi = Model{Avail: avail, Costs: Costs{C: 100, R: hi, L: 100}}.Gamma(T, age)
		return gLo <= gHi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOptimalRatioMonotoneInC(t *testing.T) {
	// The optimized overhead ratio (cost per unit work) can only grow
	// with the checkpoint cost.
	avail := dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{1.0 / 600, 1.0 / 30000})
	prev := 0.0
	for _, c := range []float64{25, 100, 400, 1600} {
		m := Model{Avail: avail, Costs: Costs{C: c, R: c, L: c}}
		_, ratio, err := m.Topt(200, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ratio < prev {
			t.Errorf("optimal ratio fell when C rose to %g: %g < %g", c, ratio, prev)
		}
		prev = ratio
	}
}

func TestEfficiencyMatchesReciprocalRatio(t *testing.T) {
	m := testModels(t)[1]
	f := func(T, age float64) bool {
		T = 1 + math.Abs(math.Mod(T, 10000))
		age = math.Abs(math.Mod(age, 10000))
		return almostEqual(m.Efficiency(T, age)*m.OverheadRatio(T, age), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGammaEvaluatorMatchesModel pins the hoisting invariant: the
// per-search evaluator, which precomputes the age-constant
// special-function terms, must reproduce Model.Gamma bitwise — the
// warm-start optimizer's bit-identity argument depends on it.
func TestGammaEvaluatorMatchesModel(t *testing.T) {
	costs := mustCosts(t, 100, 150, 120)
	dists := []dist.Distribution{
		dist.NewExponential(1.0 / 9000),
		dist.NewWeibull(0.43, 3409),
		dist.NewHyperexponential([]float64{0.6, 0.3, 0.1}, []float64{1.0 / 500, 1.0 / 5000, 1.0 / 50000}),
	}
	for _, d := range dists {
		m := Model{Avail: d, Costs: costs}
		for _, age := range []float64{0, 1, 250, 3409, 20000} {
			e := m.evaluator(age)
			for _, T := range []float64{1, 30, 500, 2500, 50000} {
				want := m.Gamma(T, age)
				got := e.gamma(T)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("%s: gamma(T=%g, age=%g) evaluator %v != model %v",
						d.Name(), T, age, got, want)
				}
				wantR := want / T
				if gotR := e.ratio(T); gotR != wantR && !(math.IsNaN(gotR) && math.IsNaN(wantR)) {
					t.Errorf("%s: ratio(T=%g, age=%g) evaluator %v != model %v",
						d.Name(), T, age, gotR, wantR)
				}
			}
		}
	}
}

// TestToptWarmMatchesCold pins the warm-start contract: wherever the
// warm window accepts, its result is bitwise identical to the cold
// full-grid search.
func TestToptWarmMatchesCold(t *testing.T) {
	m := Model{Avail: dist.NewWeibull(0.43, 3409), Costs: mustCosts(t, 100, 100, 100)}
	var opts OptimizeOptions
	opts.setDefaults()
	prevT := 0.0
	age := 0.0
	warmHits := 0
	for i := 0; i < 40; i++ {
		coldT, coldR, err := m.Topt(age, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prevT > 0 {
			if T, ratio, _, ok := m.toptWarm(age, prevT, opts, false); ok {
				warmHits++
				if T != coldT || ratio != coldR {
					t.Fatalf("interval %d (age %g): warm (%v, %v) != cold (%v, %v)",
						i, age, T, ratio, coldT, coldR)
				}
			}
		}
		prevT = coldT
		age += coldT + m.Costs.C
	}
	if warmHits < 30 {
		t.Errorf("warm start accepted only %d/39 times; expected it to carry nearly every interval", warmHits)
	}
}

// TestToptWarmDeclinesDeepTail pins the survival guard: once the
// conditioning mass S(age) vanishes, the objective is numerical noise
// and the warm window must hand back to the cold full-grid scan.
func TestToptWarmDeclinesDeepTail(t *testing.T) {
	m := Model{Avail: dist.NewWeibull(0.43, 3409), Costs: mustCosts(t, 50, 50, 50)}
	var opts OptimizeOptions
	opts.setDefaults()
	// S(2e6) for Weibull(0.43, 3409) is ~1e-7, below warmMinSurvival.
	if s := m.Avail.Survival(2e6); s >= warmMinSurvival {
		t.Fatalf("test premise broken: S(2e6) = %g", s)
	}
	if _, _, _, ok := m.toptWarm(2e6, 5000, opts, false); ok {
		t.Error("warm start accepted an age deep in the availability tail")
	}
	// Cold Topt still answers there.
	if _, _, err := m.Topt(2e6, opts); err != nil {
		t.Errorf("cold Topt failed in the tail: %v", err)
	}
}
