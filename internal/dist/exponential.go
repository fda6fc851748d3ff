package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Exponential is the exponential distribution with rate λ (Eqs. 1-2):
//
//	f(x) = λ e^(-λx),  F(x) = 1 - e^(-λx).
//
// Its memoryless property means the future-lifetime distribution
// equals the original for every age, so an exponential model yields a
// single periodic checkpoint interval.
type Exponential struct {
	Lambda float64
}

// NewExponential returns an exponential distribution with rate lambda.
// It panics if lambda <= 0; use fit.Exponential for data-driven
// construction with error reporting.
func NewExponential(lambda float64) Exponential {
	if !(lambda > 0) {
		panic(fmt.Sprintf("dist: exponential rate must be positive, got %g", lambda))
	}
	return Exponential{Lambda: lambda}
}

// PDF implements Distribution.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Lambda * math.Exp(-e.Lambda*x)
}

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// -expm1(-λx) avoids cancellation for small λx.
	return -math.Expm1(-e.Lambda * x)
}

// Survival implements Distribution.
func (e Exponential) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-e.Lambda * x)
}

// Quantile implements Distribution.
func (e Exponential) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return -math.Log1p(-p) / e.Lambda
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// PartialMoment implements Distribution:
//
//	∫₀ˣ t λ e^(-λt) dt = 1/λ − e^(-λx)(x + 1/λ).
func (e Exponential) PartialMoment(x float64) float64 {
	if x <= 0 {
		return 0
	}
	inv := 1 / e.Lambda
	return inv - math.Exp(-e.Lambda*x)*(x+inv)
}

// Point implements PointEvaluator: e^(-λx) is shared by the survival
// and the partial moment; the CDF keeps its own expm1.
func (e Exponential) Point(x float64) (s, cdf, pm float64) {
	if x <= 0 {
		return 1, 0, 0
	}
	ex := math.Exp(-e.Lambda * x)
	inv := 1 / e.Lambda
	return ex, -math.Expm1(-e.Lambda * x), inv - ex*(x+inv)
}

// SurvivalIntegral implements SurvivalIntegraler:
// ∫ₓ^∞ e^(-λu) du = e^(-λx)/λ.
func (e Exponential) SurvivalIntegral(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-e.Lambda*x) / e.Lambda
}

// Rand implements Distribution.
func (e Exponential) Rand(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / e.Lambda
}

// Name implements Distribution.
func (e Exponential) Name() string { return "exponential" }

// Memoryless implements the Memoryless capability: the exponential is
// the unique memoryless continuous lifetime law.
func (e Exponential) Memoryless() bool { return true }

// String returns a short human-readable description.
func (e Exponential) String() string {
	return fmt.Sprintf("Exponential(λ=%.6g)", e.Lambda)
}
