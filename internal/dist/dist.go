// Package dist implements the availability-duration distributions the
// paper fits to Condor occupancy data: exponential, Weibull, and
// k-phase hyperexponential (Eqs. 1-7), together with the
// future-lifetime (age-conditioned) law of §3.3 (Eqs. 8-10).
//
// Beyond the textbook density/distribution functions, every family
// exposes the closed-form partial moment ∫₀ˣ t·f(t) dt that the Markov
// model's expected-cost terms K02 and K22 require (§3.5); having it in
// closed form is what makes schedule optimization fast enough to run
// once per work interval.
package dist

import (
	"math"
	"math/rand"

	"github.com/cycleharvest/ckptsched/internal/mathx"
)

// Distribution is a continuous nonnegative lifetime distribution.
//
// Implementations must be immutable after construction and safe for
// concurrent use.
type Distribution interface {
	// PDF evaluates the probability density function f(x).
	PDF(x float64) float64
	// CDF evaluates the cumulative distribution function F(x).
	CDF(x float64) float64
	// Survival evaluates 1 - F(x), computed to avoid cancellation
	// where the family permits.
	Survival(x float64) float64
	// Quantile returns inf{x : F(x) >= p} for p in [0, 1).
	Quantile(p float64) float64
	// Mean returns E[X].
	Mean() float64
	// PartialMoment returns ∫₀ˣ t·f(t) dt, the unnormalized
	// contribution of lifetimes up to x to the mean.
	PartialMoment(x float64) float64
	// Rand draws one variate using rng.
	Rand(rng *rand.Rand) float64
	// Name identifies the family (e.g. "weibull").
	Name() string
}

// Memoryless is an optional capability interface. A distribution whose
// future-lifetime law is independent of age — the exponential family —
// reports it by returning true. A type that does not implement the
// interface never claims the property, which is the safe default.
//
// Consumers must detect the capability through IsMemoryless rather
// than by inspecting Name(), so renaming a family or interposing a
// wrapper cannot silently change scheduling behavior.
type Memoryless interface {
	Memoryless() bool
}

// IsMemoryless reports whether d declares itself memoryless via the
// Memoryless capability interface.
func IsMemoryless(d Distribution) bool {
	m, ok := d.(Memoryless)
	return ok && m.Memoryless()
}

// quantileByBisection inverts a CDF numerically. It is the generic
// fallback used by families without a closed-form quantile.
func quantileByBisection(cdf func(float64) float64, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, 1.0
	for cdf(hi) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	for range 200 {
		mid := 0.5 * (lo + hi)
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(1, hi) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// NumericPartialMoment computes ∫₀ˣ t·f(t) dt numerically. It is the
// property tests' oracle for every family's closed form; no program
// path calls it.
//
// It uses integration by parts, ∫₀ˣ t f(t) dt = x·F(x) − ∫₀ˣ F(t) dt,
// so only the bounded, monotone CDF is integrated (the density may be
// singular at the origin for Weibull shapes < 1), and it splits the
// range at quantiles so that mass concentrated far from x is resolved.
func NumericPartialMoment(d Distribution, x float64) float64 {
	if x <= 0 {
		return 0
	}
	intF := 0.0
	prev := 0.0
	fx := d.CDF(x)
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		if p >= fx {
			break
		}
		q := d.Quantile(p)
		if q >= x {
			break
		}
		intF += mathx.SimpsonAdaptive(d.CDF, prev, q, 1e-12*math.Max(1, q-prev))
		prev = q
	}
	intF += mathx.SimpsonAdaptive(d.CDF, prev, x, 1e-12*math.Max(1, x-prev))
	return x*fx - intF
}

// SurvivalIntegraler is implemented by distributions that can evaluate
// ∫ₓ^∞ S(u) du in closed form. The integral equals E[(X−x)⁺]. No
// caller reads it yet: it is kept as the cancellation-free route to
// the conditional law's expected lifetime within a span,
// E[min(X_t, s)] = [SI(t) − SI(t+s)] / S(t), which can replace the
// partial-moment subtraction in Conditional.At deep in the tail.
type SurvivalIntegraler interface {
	SurvivalIntegral(x float64) float64
}

// PointEvaluator is implemented by distributions that can produce the
// three quantities the Markov model reads at one abscissa — S(x), F(x)
// and the partial moment ∫₀ˣ t·f(t) dt — in a single pass. The three
// methods of a closed-form family exponentiate the same arguments
// (k-phase hyperexponential: the same k values of e^(−λᵢx) for
// Survival and PartialMoment; Weibull: the same (x/β)^α for all three),
// and Γ asks for all of them at every probe.
//
// Contract: Point(x) returns exactly (Survival(x), CDF(x),
// PartialMoment(x)), bit for bit, for every x including ±Inf and NaN.
// An implementation evaluates the same expressions in the same order
// as the three methods and shares only subexpressions that are equal
// by construction; it never reassociates a sum or substitutes an
// algebraically equivalent form (1 − S for −expm1, say). That is what
// keeps Γ, and with it every T_opt and every table, unchanged by the
// capability. TestPointMatchesMethods and FuzzPoint pin it.
type PointEvaluator interface {
	Point(x float64) (s, cdf, pm float64)
}

// Point returns (Survival(x), CDF(x), PartialMoment(x)) of d, in one
// pass when d implements PointEvaluator and by the three methods
// otherwise.
func Point(d Distribution, x float64) (s, cdf, pm float64) {
	if p, ok := d.(PointEvaluator); ok {
		return p.Point(x)
	}
	return d.Survival(x), d.CDF(x), d.PartialMoment(x)
}
