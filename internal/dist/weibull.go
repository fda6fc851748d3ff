package dist

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/cycleharvest/ckptsched/internal/mathx"
)

// Weibull is the two-parameter Weibull distribution (Eqs. 3-4):
//
//	f(x) = (α/β)(x/β)^(α-1) e^(-(x/β)^α),  F(x) = 1 - e^(-(x/β)^α),
//
// with shape α > 0 and scale β > 0. Shapes below 1 — the regime the
// paper measures for desktop availability (e.g. α = 0.43) — give a
// decreasing hazard rate: the longer a machine has been available, the
// longer it is expected to remain available.
type Weibull struct {
	Shape float64 // α
	Scale float64 // β
}

// NewWeibull returns a Weibull distribution with the given shape and
// scale. It panics on non-positive parameters.
func NewWeibull(shape, scale float64) Weibull {
	if !(shape > 0) || !(scale > 0) {
		panic(fmt.Sprintf("dist: weibull parameters must be positive, got shape=%g scale=%g", shape, scale))
	}
	return Weibull{Shape: shape, Scale: scale}
}

// PDF implements Distribution.
func (w Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case w.Shape < 1:
			return math.Inf(1)
		case w.Shape == 1:
			return 1 / w.Scale
		default:
			return 0
		}
	}
	z := x / w.Scale
	return w.Shape / w.Scale * math.Pow(z, w.Shape-1) * math.Exp(-math.Pow(z, w.Shape))
}

// CDF implements Distribution.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Survival implements Distribution.
func (w Weibull) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(x/w.Scale, w.Shape))
}

// Quantile implements Distribution.
func (w Weibull) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return w.Scale * math.Pow(-math.Log1p(-p), 1/w.Shape)
}

// Mean implements Distribution: β·Γ(1 + 1/α).
func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// PartialMoment implements Distribution. Substituting u = (t/β)^α,
//
//	∫₀ˣ t f(t) dt = β · γ(1 + 1/α, (x/β)^α)
//
// where γ is the lower incomplete gamma function, evaluated through the
// regularized form P(a, z)·Γ(a).
func (w Weibull) PartialMoment(x float64) float64 {
	if x <= 0 {
		return 0
	}
	a := 1 + 1/w.Shape
	z := math.Pow(x/w.Scale, w.Shape)
	return w.Scale * mathx.GammaP(a, z) * math.Gamma(a)
}

// Point implements PointEvaluator: z = (x/β)^α is shared by all three
// quantities.
func (w Weibull) Point(x float64) (s, cdf, pm float64) {
	if x <= 0 {
		return 1, 0, 0
	}
	a := 1 + 1/w.Shape
	z := math.Pow(x/w.Scale, w.Shape)
	return math.Exp(-z), -math.Expm1(-z), w.Scale * mathx.GammaP(a, z) * math.Gamma(a)
}

// SurvivalIntegral implements SurvivalIntegraler. Substituting
// z = (u/β)^α,
//
//	∫ₓ^∞ e^(-(u/β)^α) du = (β/α)·Γ(1/α)·Q(1/α, (x/β)^α)
//
// with Q the regularized upper incomplete gamma function.
func (w Weibull) SurvivalIntegral(x float64) float64 {
	if x < 0 {
		x = 0
	}
	a := 1 / w.Shape
	z := math.Pow(x/w.Scale, w.Shape)
	return w.Scale * a * math.Gamma(a) * mathx.GammaQ(a, z)
}

// Rand implements Distribution by inversion.
func (w Weibull) Rand(rng *rand.Rand) float64 {
	// Use 1-U to keep the argument of Log away from 0 when U == 0.
	u := rng.Float64()
	return w.Scale * math.Pow(-math.Log1p(-u), 1/w.Shape)
}

// Name implements Distribution.
func (w Weibull) Name() string { return "weibull" }

// String returns a short human-readable description.
func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%.6g, scale=%.6g)", w.Shape, w.Scale)
}
