package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// LogNormal is the lognormal distribution: ln X ~ N(Mu, Sigma²). It is
// a standard comparator in the availability-modeling literature the
// paper reviews (long-tailed but with all moments finite) and rounds
// out the model-selection tooling; the paper's four tabulated families
// remain exponential, Weibull and the hyperexponentials.
type LogNormal struct {
	Mu    float64 // mean of ln X
	Sigma float64 // standard deviation of ln X, > 0
}

// NewLogNormal returns a lognormal distribution. It panics on
// non-positive sigma.
func NewLogNormal(mu, sigma float64) LogNormal {
	if !(sigma > 0) {
		panic(fmt.Sprintf("dist: lognormal sigma must be positive, got %g", sigma))
	}
	return LogNormal{Mu: mu, Sigma: sigma}
}

// stdNormalCDF is Φ, the standard normal CDF.
func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// stdNormalQuantile is Φ⁻¹.
func stdNormalQuantile(p float64) float64 {
	return -math.Sqrt2 * math.Erfinv(1-2*p)
}

// z standardizes ln x.
func (l LogNormal) z(x float64) float64 {
	return (math.Log(x) - l.Mu) / l.Sigma
}

// PDF implements Distribution.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := l.z(x)
	return math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Distribution.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return stdNormalCDF(l.z(x))
}

// Survival implements Distribution.
func (l LogNormal) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return stdNormalCDF(-l.z(x))
}

// Quantile implements Distribution.
func (l LogNormal) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return math.Exp(l.Mu + l.Sigma*stdNormalQuantile(p))
}

// Mean implements Distribution: e^(µ+σ²/2).
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// PartialMoment implements Distribution in closed form:
//
//	∫₀ˣ t f(t) dt = e^(µ+σ²/2) · Φ((ln x − µ − σ²)/σ).
func (l LogNormal) PartialMoment(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return l.Mean() * stdNormalCDF(l.z(x)-l.Sigma)
}

// SurvivalIntegral implements SurvivalIntegraler:
//
//	∫ₓ^∞ S(u) du = E[(X−x)⁺] = e^(µ+σ²/2)·Φ(σ−z) − x·Φ(−z),  z = (ln x − µ)/σ.
func (l LogNormal) SurvivalIntegral(x float64) float64 {
	if x <= 0 {
		return l.Mean() - math.Max(x, 0)
	}
	z := l.z(x)
	return l.Mean()*stdNormalCDF(l.Sigma-z) - x*stdNormalCDF(-z)
}

// Rand implements Distribution.
func (l LogNormal) Rand(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Name implements Distribution.
func (l LogNormal) Name() string { return "lognormal" }

// String returns a short human-readable description.
func (l LogNormal) String() string {
	return fmt.Sprintf("LogNormal(µ=%.6g, σ=%.6g)", l.Mu, l.Sigma)
}
