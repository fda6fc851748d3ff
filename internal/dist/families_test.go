package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExponentialKnownValues(t *testing.T) {
	e := NewExponential(2)
	if got := e.PDF(0); got != 2 {
		t.Errorf("PDF(0) = %g, want 2", got)
	}
	if got := e.CDF(math.Ln2 / 2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("CDF(ln2/2) = %g, want 0.5", got)
	}
	if got := e.Mean(); got != 0.5 {
		t.Errorf("Mean = %g, want 0.5", got)
	}
	// ∫₀^∞ t·2e^{-2t} dt = 1/2; at x=∞ the partial moment is the mean.
	if got := e.PartialMoment(1e9); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("PartialMoment(inf) = %g, want 0.5", got)
	}
}

func TestExponentialMemoryless(t *testing.T) {
	e := NewExponential(0.003)
	f := func(age, x float64) bool {
		age = math.Abs(math.Mod(age, 1e5))
		x = math.Abs(math.Mod(x, 1e4))
		s, _ := NewConditional(e, age).At(x)
		return almostEqual(1-s, e.CDF(x), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewExponential(0) should panic")
		}
	}()
	NewExponential(0)
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	w := NewWeibull(1, 50)
	e := NewExponential(1.0 / 50)
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1e4))
		return almostEqual(w.CDF(x), e.CDF(x), 1e-12) &&
			almostEqual(w.PDF(x+1e-9), e.PDF(x+1e-9), 1e-9) &&
			almostEqual(w.PartialMoment(x), e.PartialMoment(x), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !almostEqual(w.Mean(), e.Mean(), 1e-12) {
		t.Errorf("weibull(1,50) mean %g vs exp mean %g", w.Mean(), e.Mean())
	}
}

func TestWeibullFutureLifetimeFormula(t *testing.T) {
	// Eq. 9: (F_W)_t(x) = 1 − e^{(t/β)^α − ((t+x)/β)^α}.
	// (The paper prints the second exponent as (x/β)^α, but for the
	// conditional survival S(t+x)/S(t) the argument must be t+x; with
	// x alone the expression is not a distribution function in x.)
	w := NewWeibull(0.43, 3409)
	f := func(age, x float64) bool {
		age = math.Abs(math.Mod(age, 5e4))
		x = math.Abs(math.Mod(x, 5e4))
		s, _ := NewConditional(w, age).At(x)
		a, b := w.Shape, w.Scale
		want := 1 - math.Exp(math.Pow(age/b, a)-math.Pow((age+x)/b, a))
		return almostEqual(1-s, want, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeibullPDFAtZero(t *testing.T) {
	if got := NewWeibull(0.5, 10).PDF(0); !math.IsInf(got, 1) {
		t.Errorf("shape<1 PDF(0) = %g, want +Inf", got)
	}
	if got := NewWeibull(1, 10).PDF(0); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("shape=1 PDF(0) = %g, want 0.1", got)
	}
	if got := NewWeibull(2, 10).PDF(0); got != 0 {
		t.Errorf("shape>1 PDF(0) = %g, want 0", got)
	}
}

func TestWeibullPaperMachineMoments(t *testing.T) {
	// The machine the paper reports: shape 0.43, scale 3409.
	w := NewWeibull(0.43, 3409)
	// Mean = β·Γ(1+1/0.43) = 3409·Γ(3.3256...)
	want := 3409 * math.Gamma(1+1/0.43)
	if got := w.Mean(); !almostEqual(got, want, 1e-12) {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if w.Mean() < 3409 {
		t.Error("heavy-tailed mean should exceed the scale parameter")
	}
	med := w.Quantile(0.5)
	if med >= w.Mean() {
		t.Errorf("heavy tail: median %g should be far below mean %g", med, w.Mean())
	}
}

func TestHyperexpSinglePhaseIsExponential(t *testing.T) {
	h := NewHyperexponential([]float64{1}, []float64{0.02})
	e := NewExponential(0.02)
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1e4))
		return almostEqual(h.CDF(x), e.CDF(x), 1e-12) &&
			almostEqual(h.PartialMoment(x), e.PartialMoment(x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !almostEqual(h.Quantile(0.3), e.Quantile(0.3), 1e-9) {
		t.Error("single-phase quantile mismatch")
	}
}

func TestHyperexpNormalizesWeights(t *testing.T) {
	h := NewHyperexponential([]float64{2, 2}, []float64{1, 2})
	if !almostEqual(h.P[0], 0.5, 1e-15) || !almostEqual(h.P[1], 0.5, 1e-15) {
		t.Errorf("weights not normalized: %v", h.P)
	}
}

func TestHyperexpMeanVar(t *testing.T) {
	h := NewHyperexponential([]float64{0.25, 0.75}, []float64{0.1, 0.01})
	wantMean := 0.25/0.1 + 0.75/0.01
	if got := h.Mean(); !almostEqual(got, wantMean, 1e-12) {
		t.Errorf("Mean = %g, want %g", got, wantMean)
	}
	// E[X²] = 2∫₀^∞ u·S(u) du = 2∫₀^∞ SI(x) dx, so the survival
	// integral must reproduce the closed-form variance
	// 2Σᵢ pᵢ/λᵢ² − (Σᵢ pᵢ/λᵢ)². The slow phase is e^(−50) down at 5000.
	wantVar := 2*(0.25/(0.1*0.1)+0.75/(0.01*0.01)) - wantMean*wantMean
	gotVar := 2*quadrature(h.SurvivalIntegral, 0, 5000) - h.Mean()*h.Mean()
	if !almostEqual(gotVar, wantVar, 1e-9) {
		t.Errorf("Var via SurvivalIntegral = %g, want %g", gotVar, wantVar)
	}
	// Hyperexponentials always have coefficient of variation >= 1.
	if gotVar < h.Mean()*h.Mean() {
		t.Error("hyperexponential CV must be >= 1")
	}
}

func TestHyperexpFutureLifetimeFormula(t *testing.T) {
	// Eq. 10 with the same t+x reading as Eq. 9:
	// (F_H)_t(x) = 1 − Σp_i e^{-λ_i(t+x)} / Σp_i e^{-λ_i t}.
	h := NewHyperexponential([]float64{0.6, 0.4}, []float64{0.01, 0.0002})
	f := func(age, x float64) bool {
		age = math.Abs(math.Mod(age, 2e4))
		x = math.Abs(math.Mod(x, 2e4))
		s, _ := NewConditional(h, age).At(x)
		num, den := 0.0, 0.0
		for i := range h.P {
			num += h.P[i] * math.Exp(-h.Lambda[i]*(age+x))
			den += h.P[i] * math.Exp(-h.Lambda[i]*age)
		}
		return almostEqual(1-s, 1-num/den, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHyperexpConditionalShiftsTowardSlowPhase(t *testing.T) {
	// As a hyperexponential ages, surviving mass concentrates in the
	// slow phase, so the mean residual life must increase toward the
	// slow phase mean.
	h := NewHyperexponential([]float64{0.9, 0.1}, []float64{0.1, 0.001})
	m0 := meanResidualLife(h, 0)
	m1 := meanResidualLife(h, 100)
	m2 := meanResidualLife(h, 5000)
	if !(m0 < m1 && m1 < m2) {
		t.Errorf("MRL not increasing: %g, %g, %g", m0, m1, m2)
	}
	if m2 > 1/0.001+1 {
		t.Errorf("MRL %g exceeded slow-phase mean %g", m2, 1/0.001)
	}
}

func TestHyperexpPanics(t *testing.T) {
	cases := []struct {
		name      string
		p, lambda []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []float64{1}, []float64{1, 2}},
		{"negative weight", []float64{-1, 2}, []float64{1, 2}},
		{"zero rate", []float64{0.5, 0.5}, []float64{1, 0}},
		{"zero weights", []float64{0, 0}, []float64{1, 2}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			NewHyperexponential(c.p, c.lambda)
		}()
	}
}

func TestConditionalAgeZeroIsBase(t *testing.T) {
	for _, base := range []Distribution{
		NewExponential(0.01),
		NewWeibull(0.7, 500),
		NewHyperexponential([]float64{0.5, 0.5}, []float64{0.01, 0.001}),
	} {
		c := NewConditional(base, 0)
		for _, x := range []float64{0.5, 30, 700} {
			s, pm := c.At(x)
			if !almostEqual(s, base.Survival(x), 1e-12) {
				t.Errorf("%s: conditional at age 0 differs at %g", base.Name(), x)
			}
			if !almostEqual(pm, base.PartialMoment(x), 1e-10) {
				t.Errorf("%s: conditional PM at age 0 differs at %g", base.Name(), x)
			}
		}
	}
}

func TestConditionalNegativeAgeClamped(t *testing.T) {
	base := NewWeibull(0.43, 3409)
	neg, zero := NewConditional(base, -5), NewConditional(base, 0)
	if neg.AgeSurvival() != 1 {
		t.Errorf("negative age not clamped: S(age) = %g", neg.AgeSurvival())
	}
	for _, x := range []float64{1, 600, 1e5} {
		s, pm := neg.At(x)
		s0, pm0 := zero.At(x)
		if s != s0 || pm != pm0 {
			t.Errorf("At(%g) at age −5 = (%g, %g), at age 0 (%g, %g)", x, s, pm, s0, pm0)
		}
	}
}

// conditionalQuantile inverts F_t through the base quantile,
// F_t⁻¹(p) = F⁻¹(F(t) + p·S(t)) − t: the independent route to the
// conditional law the tests below check At against.
func conditionalQuantile(base Distribution, age, p float64) float64 {
	return base.Quantile(base.CDF(age)+p*base.Survival(age)) - age
}

func TestConditionalQuantileRoundTrip(t *testing.T) {
	base := NewWeibull(0.43, 3409)
	c := NewConditional(base, 2500)
	for _, p := range []float64{0.05, 0.3, 0.5, 0.8, 0.99} {
		s, _ := c.At(conditionalQuantile(base, 2500, p))
		if got := 1 - s; !almostEqual(got, p, 1e-8) {
			t.Errorf("F_t(Quantile(%g)) = %g", p, got)
		}
	}
}

// TestConditionalRandSampling draws remaining lifetimes by inverse
// transform and compares the sample mean of min(X_t, span) with
// E[min(X_t, span)] = PM_t(span) + span·S_t(span) from At.
func TestConditionalRandSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := NewWeibull(0.43, 3409)
	c := NewConditional(base, 1000)
	const n, span = 100000, 5000.0
	sum := 0.0
	for range n {
		sum += math.Min(conditionalQuantile(base, 1000, rng.Float64()), span)
	}
	s, pm := c.At(span)
	if got, want := sum/n, pm+span*s; !almostEqual(got, want, 0.01) {
		t.Errorf("conditional sample mean of min(X_t, %g) = %g, analytic %g", span, got, want)
	}
}
