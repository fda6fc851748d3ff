package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Conditional is the future-lifetime distribution F_t of §3.3 (Eq. 8):
// the distribution of the remaining lifetime X - t of a resource that
// has already been available for t = Age seconds,
//
//	F_t(x) = (F(t+x) − F(t)) / (1 − F(t)).
//
// For an exponential base this collapses to the base distribution
// (memorylessness); for Weibull and hyperexponential bases it is the
// quantity that turns a single optimal interval into an aperiodic
// schedule.
type Conditional struct {
	Base Distribution
	Age  float64
}

// NewConditional returns the future-lifetime distribution of base at
// the given age. A negative age is treated as zero. If the base
// survival at age is zero the resulting distribution is degenerate at
// zero (the resource is already certain to have failed); callers in
// the Markov model guard against this case explicitly.
func NewConditional(base Distribution, age float64) Conditional {
	if age < 0 {
		age = 0
	}
	return Conditional{Base: base, Age: age}
}

// PDF implements Distribution: f(t+x)/S(t).
func (c Conditional) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	s := c.Base.Survival(c.Age)
	if s <= 0 {
		return 0
	}
	return c.Base.PDF(c.Age+x) / s
}

// CDF implements Distribution (Eq. 8).
func (c Conditional) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	s := c.Base.Survival(c.Age)
	if s <= 0 {
		return 1
	}
	return 1 - c.Base.Survival(c.Age+x)/s
}

// Survival implements Distribution: S(t+x)/S(t).
func (c Conditional) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	s := c.Base.Survival(c.Age)
	if s <= 0 {
		return 0
	}
	return c.Base.Survival(c.Age+x) / s
}

// Quantile implements Distribution via the base quantile:
// F_t^{-1}(p) = F^{-1}(F(t) + p·S(t)) − t.
func (c Conditional) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	s := c.Base.Survival(c.Age)
	if s <= 0 {
		return 0
	}
	return c.Base.Quantile(c.Base.CDF(c.Age)+p*s) - c.Age
}

// Mean implements Distribution: the mean residual life at Age.
func (c Conditional) Mean() float64 {
	return MeanResidualLife(c.Base, c.Age)
}

// PartialMoment implements Distribution in closed form through the
// base partial moment:
//
//	∫₀ˣ u f_t(u) du = [PM(t+x) − PM(t) − t(F(t+x) − F(t))] / S(t).
func (c Conditional) PartialMoment(x float64) float64 {
	if x <= 0 {
		return 0
	}
	s, cdfAge, pmAge := Point(c.Base, c.Age)
	if s <= 0 {
		return 0
	}
	_, cdf, pm := Point(c.Base, c.Age+x)
	dF := cdf - cdfAge
	return (pm - pmAge - c.Age*dF) / s
}

// SurvivalIntegral implements SurvivalIntegraler when the base does:
// ∫ₓ^∞ S(t+u)/S(t) du = SI_base(t+x)/S(t). Without base support it
// falls back to 0-age semantics via the package helper.
func (c Conditional) SurvivalIntegral(x float64) float64 {
	if x < 0 {
		x = 0
	}
	s := c.Base.Survival(c.Age)
	if s <= 0 {
		return 0
	}
	if si, ok := c.Base.(SurvivalIntegraler); ok {
		return si.SurvivalIntegral(c.Age+x) / s
	}
	// ∫ₓ^∞ S(t+u)/S(t) du = MRL_base(t+x) · S(t+x)/S(t).
	return MeanResidualLife(c.Base, c.Age+x) * c.Survival(x)
}

// Rand implements Distribution by inverse-transform sampling of the
// conditional law.
func (c Conditional) Rand(rng *rand.Rand) float64 {
	return c.Quantile(rng.Float64())
}

// Name implements Distribution.
func (c Conditional) Name() string {
	return fmt.Sprintf("%s|age=%g", c.Base.Name(), c.Age)
}

// Memoryless implements the Memoryless capability by delegating to the
// base: conditioning a memoryless law on age reproduces the law itself,
// so the wrapper preserves (and must report) the property.
func (c Conditional) Memoryless() bool { return IsMemoryless(c.Base) }
