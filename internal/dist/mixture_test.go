package dist

import (
	"math"
	"math/rand"
	"testing"
)

func testMixture() Mixture {
	return NewMixture(
		[]float64{0.6, 0.4},
		[]Distribution{
			NewExponential(1.0 / 300), // interactive gaps, mean 5 min
			NewWeibull(0.7, 4*3600),   // overnight stretches
		},
	)
}

func TestMixtureBasicIdentities(t *testing.T) {
	m := testMixture()
	for _, x := range []float64{1, 100, 5000, 100000} {
		if got := m.CDF(x) + m.Survival(x); !almostEqual(got, 1, 1e-12) {
			t.Errorf("CDF+Survival at %g = %g", x, got)
		}
	}
	wantMean := 0.6*300 + 0.4*4*3600*math.Gamma(1+1/0.7)
	if got := m.Mean(); !almostEqual(got, wantMean, 1e-12) {
		t.Errorf("Mean = %g, want %g", got, wantMean)
	}
}

func TestMixturePartialMomentMatchesQuadrature(t *testing.T) {
	m := testMixture()
	for _, x := range []float64{50, 1000, 40000} {
		got := m.PartialMoment(x)
		want := NumericPartialMoment(m, x)
		if !almostEqual(got, want, 1e-5) {
			t.Errorf("PartialMoment(%g) = %g, quadrature %g", x, got, want)
		}
	}
}

func TestMixtureQuantileRoundTrip(t *testing.T) {
	m := testMixture()
	for _, p := range []float64{0.05, 0.4, 0.6, 0.95} {
		x := m.Quantile(p)
		if got := m.CDF(x); !almostEqual(got, p, 1e-7) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
	if m.Quantile(0) != 0 || !math.IsInf(m.Quantile(1), 1) {
		t.Error("quantile edges wrong")
	}
}

func TestMixtureSurvivalIntegralConsistent(t *testing.T) {
	m := testMixture()
	// MRL via SurvivalIntegral must match direct numeric integration
	// of the conditional survival S(t+u)/S(t).
	for _, age := range []float64{0, 200, 10000} {
		mrl := meanResidualLife(m, age)
		hi := conditionalQuantile(m, age, 1-1e-9)
		direct := 0.0
		const steps = 200000
		h := hi / steps
		for i := 0; i < steps; i++ {
			direct += m.Survival(age+(float64(i)+0.5)*h) / m.Survival(age)
		}
		direct *= h
		if !almostEqual(mrl, direct, 5e-3) {
			t.Errorf("age %g: MRL %g vs direct %g", age, mrl, direct)
		}
	}
}

// TestMixtureSurvivalIntegralNeedsEveryComponent pins the NaN for a
// component without the capability: embedding the interface hides
// Exponential's SurvivalIntegral.
func TestMixtureSurvivalIntegralNeedsEveryComponent(t *testing.T) {
	type opaque struct{ Distribution }
	m := NewMixture([]float64{1, 1}, []Distribution{NewExponential(1), opaque{NewExponential(2)}})
	if got := m.SurvivalIntegral(1); !math.IsNaN(got) {
		t.Errorf("SurvivalIntegral with an opaque component = %g, want NaN", got)
	}
}

func TestMixtureBimodalMRLGrows(t *testing.T) {
	// The defining behavior: once a machine survives the interactive
	// regime, expected remaining life jumps toward the long component.
	m := testMixture()
	early := meanResidualLife(m, 0)
	late := meanResidualLife(m, 3600)
	if late <= early {
		t.Errorf("MRL did not grow: %g -> %g", early, late)
	}
}

func TestMixtureSampling(t *testing.T) {
	m := testMixture()
	rng := rand.New(rand.NewSource(8))
	const n = 200000
	sum := 0.0
	for range n {
		v := m.Rand(rng)
		if v < 0 {
			t.Fatal("negative variate")
		}
		sum += v
	}
	if got := sum / n; !almostEqual(got, m.Mean(), 0.05) {
		t.Errorf("sample mean %g, analytic %g", got, m.Mean())
	}
}

func TestMixtureName(t *testing.T) {
	if got := testMixture().Name(); got != "mixture(exponential+weibull)" {
		t.Errorf("Name = %q", got)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []struct {
		name string
		w    []float64
		c    []Distribution
	}{
		{"empty", nil, nil},
		{"mismatch", []float64{1}, []Distribution{NewExponential(1), NewExponential(2)}},
		{"negative", []float64{-1, 2}, []Distribution{NewExponential(1), NewExponential(2)}},
		{"nil component", []float64{1, 1}, []Distribution{NewExponential(1), nil}},
		{"zero weights", []float64{0, 0}, []Distribution{NewExponential(1), NewExponential(2)}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			NewMixture(c.w, c.c)
		}()
	}
}

func TestMixtureConditionalWorks(t *testing.T) {
	// Mixtures must compose with the future-lifetime machinery used by
	// the Markov model.
	m := testMixture()
	if s, pm := NewConditional(m, 1800).At(0); s != 1 || pm != 0 {
		t.Errorf("conditional At(0) = (%g, %g), want (1, 0)", s, pm)
	}
	checkConditionalQuadrature(t, m, 1800, 600)
}

// checkConditionalQuadrature compares At(x) of the law conditioned on
// age with direct integration of the base: S_t(x) = S(t+x)/S(t), and
// by parts PM_t(x) = ∫₀ˣ S_t(u) du − x·S_t(x), so neither side
// subtracts unconditional partial moments.
func checkConditionalQuadrature(t *testing.T, base Distribution, age, x float64) {
	t.Helper()
	sAge := base.Survival(age)
	wantS := base.Survival(age+x) / sAge
	wantPM := quadrature(func(u float64) float64 { return base.Survival(age+u) / sAge }, 0, x) - x*wantS
	s, pm := NewConditional(base, age).At(x)
	if !almostEqual(s, wantS, 1e-12) {
		t.Errorf("%s age %g: S_t(%g) = %g, direct %g", base.Name(), age, x, s, wantS)
	}
	if !almostEqual(pm, wantPM, 1e-5) {
		t.Errorf("%s age %g: PM_t(%g) = %g, quadrature %g", base.Name(), age, x, pm, wantPM)
	}
}
