package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestLogNormalKnownValues(t *testing.T) {
	l := NewLogNormal(0, 1)
	// Median is e^µ = 1.
	if got := l.CDF(1); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("CDF(median) = %g", got)
	}
	if got := l.Quantile(0.5); !almostEqual(got, 1, 1e-9) {
		t.Errorf("median = %g", got)
	}
	// Mean = e^{1/2}.
	if got := l.Mean(); !almostEqual(got, math.Exp(0.5), 1e-12) {
		t.Errorf("mean = %g", got)
	}
	// PDF at the median: 1/(1·1·√2π).
	if got := l.PDF(1); !almostEqual(got, 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Errorf("PDF(1) = %g", got)
	}
	if l.PDF(0) != 0 || l.CDF(-1) != 0 || l.Survival(0) != 1 {
		t.Error("edge behavior at x<=0 wrong")
	}
}

func TestLogNormalPartialMomentFormula(t *testing.T) {
	l := NewLogNormal(6.5, 1.2)
	for _, x := range []float64{10, 300, 5000, 1e6} {
		got := l.PartialMoment(x)
		want := NumericPartialMoment(l, x)
		if !almostEqual(got, want, 1e-6) {
			t.Errorf("PartialMoment(%g) = %g, quadrature %g", x, got, want)
		}
	}
	// Converges to the mean.
	if got := l.PartialMoment(1e12); !almostEqual(got, l.Mean(), 1e-6) {
		t.Errorf("PM(huge) = %g, mean %g", got, l.Mean())
	}
}

func TestLogNormalSurvivalIntegral(t *testing.T) {
	l := NewLogNormal(6.5, 1.2)
	// SurvivalIntegral(0) = Mean.
	if got := l.SurvivalIntegral(0); !almostEqual(got, l.Mean(), 1e-12) {
		t.Errorf("SI(0) = %g, mean %g", got, l.Mean())
	}
	// MRL via the closed form must match direct integration of the
	// conditional survival S(t+u)/S(t) at several ages.
	for _, age := range []float64{100, 1000, 20000} {
		mrl := meanResidualLife(l, age)
		hi := conditionalQuantile(l, age, 1-1e-10)
		const steps = 400000
		h := hi / steps
		direct := 0.0
		for i := 0; i < steps; i++ {
			direct += l.Survival(age+(float64(i)+0.5)*h) / l.Survival(age)
		}
		direct *= h
		if !almostEqual(mrl, direct, 1e-2) {
			t.Errorf("age %g: MRL %g vs direct %g", age, mrl, direct)
		}
	}
}

func TestLogNormalQuantileRoundTrip(t *testing.T) {
	l := NewLogNormal(5, 0.8)
	for _, p := range []float64{0.01, 0.2, 0.5, 0.8, 0.99} {
		x := l.Quantile(p)
		if got := l.CDF(x); !almostEqual(got, p, 1e-10) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
}

func TestLogNormalSampling(t *testing.T) {
	l := NewLogNormal(6, 0.7)
	rng := rand.New(rand.NewSource(12))
	const n = 300000
	sum := 0.0
	for range n {
		v := l.Rand(rng)
		if v <= 0 {
			t.Fatal("non-positive variate")
		}
		sum += v
	}
	if got := sum / n; !almostEqual(got, l.Mean(), 0.02) {
		t.Errorf("sample mean %g, analytic %g", got, l.Mean())
	}
}

func TestLogNormalIncreasingThenDecreasingHazard(t *testing.T) {
	// Lognormal hazard rises to a peak then falls — unlike any Weibull
	// — which is why it behaves differently in model selection.
	l := NewLogNormal(0, 1)
	h1 := hazard(l, 0.2)
	h2 := hazard(l, 1.0)
	h3 := hazard(l, 50.0)
	if !(h2 > h1) || !(h3 < h2) {
		t.Errorf("hazard shape wrong: %g, %g, %g", h1, h2, h3)
	}
}

func TestLogNormalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("sigma=0 should panic")
		}
	}()
	NewLogNormal(0, 0)
}

func TestLogNormalWorksInConditional(t *testing.T) {
	l := NewLogNormal(6.5, 1.2)
	checkConditionalQuadrature(t, l, 2000, 500)
}
