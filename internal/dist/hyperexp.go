package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Hyperexponential is a finite mixture of exponentials (Eqs. 5-7):
//
//	f(x) = Σᵢ pᵢ λᵢ e^(-λᵢ x),  Σᵢ pᵢ = 1, λᵢ > 0.
//
// A k-phase hyperexponential has 2k-1 free parameters. Mixtures with
// widely separated rates mimic heavy tails over several decades, which
// is why the paper's 2- and 3-phase fits track desktop availability so
// much better than a single exponential.
type Hyperexponential struct {
	P      []float64 // mixing probabilities, sum to 1
	Lambda []float64 // per-phase rates
}

// NewHyperexponential returns a hyperexponential with the given mixing
// probabilities and rates. The probabilities are normalized to sum to
// 1. It panics on structural errors (empty, mismatched lengths,
// non-positive rates, negative weights); use fit.HyperexpEM for
// data-driven construction.
func NewHyperexponential(p, lambda []float64) Hyperexponential {
	if len(p) == 0 || len(p) != len(lambda) {
		panic(fmt.Sprintf("dist: hyperexponential needs matching non-empty p and lambda, got %d and %d", len(p), len(lambda)))
	}
	sum := 0.0
	for i := range p {
		if p[i] < 0 {
			panic(fmt.Sprintf("dist: hyperexponential weight %d is negative: %g", i, p[i]))
		}
		if !(lambda[i] > 0) {
			panic(fmt.Sprintf("dist: hyperexponential rate %d must be positive: %g", i, lambda[i]))
		}
		sum += p[i]
	}
	if !(sum > 0) {
		panic("dist: hyperexponential weights sum to zero")
	}
	np := make([]float64, len(p))
	nl := make([]float64, len(lambda))
	for i := range p {
		np[i] = p[i] / sum
	}
	copy(nl, lambda)
	return Hyperexponential{P: np, Lambda: nl}
}

// Phases returns the number of mixture phases k.
func (h Hyperexponential) Phases() int { return len(h.P) }

// PDF implements Distribution.
func (h Hyperexponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	sum := 0.0
	for i := range h.P {
		sum += h.P[i] * h.Lambda[i] * math.Exp(-h.Lambda[i]*x)
	}
	return sum
}

// CDF implements Distribution.
func (h Hyperexponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - h.Survival(x)
}

// Survival implements Distribution: Σᵢ pᵢ e^(-λᵢ x).
func (h Hyperexponential) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	sum := 0.0
	for i := range h.P {
		sum += h.P[i] * math.Exp(-h.Lambda[i]*x)
	}
	return sum
}

// Quantile implements Distribution by numeric inversion (no closed
// form exists for k > 1).
func (h Hyperexponential) Quantile(p float64) float64 {
	if len(h.P) == 1 {
		return Exponential{Lambda: h.Lambda[0]}.Quantile(p)
	}
	return quantileByBisection(h.CDF, p)
}

// Mean implements Distribution: Σᵢ pᵢ/λᵢ.
func (h Hyperexponential) Mean() float64 {
	sum := 0.0
	for i := range h.P {
		sum += h.P[i] / h.Lambda[i]
	}
	return sum
}

// PartialMoment implements Distribution as the weighted sum of
// per-phase exponential partial moments.
func (h Hyperexponential) PartialMoment(x float64) float64 {
	if x <= 0 {
		return 0
	}
	sum := 0.0
	for i := range h.P {
		inv := 1 / h.Lambda[i]
		sum += h.P[i] * (inv - math.Exp(-h.Lambda[i]*x)*(x+inv))
	}
	return sum
}

// Point implements PointEvaluator: each phase's e^(-λᵢx) is shared by
// the survival sum and the partial-moment sum, which accumulate in
// phase order exactly as Survival and PartialMoment do.
func (h Hyperexponential) Point(x float64) (s, cdf, pm float64) {
	if x <= 0 {
		return 1, 0, 0
	}
	for i := range h.P {
		ex := math.Exp(-h.Lambda[i] * x)
		inv := 1 / h.Lambda[i]
		s += h.P[i] * ex
		pm += h.P[i] * (inv - ex*(x+inv))
	}
	return s, 1 - s, pm
}

// SurvivalIntegral implements SurvivalIntegraler:
// Σᵢ pᵢ e^(-λᵢx)/λᵢ.
func (h Hyperexponential) SurvivalIntegral(x float64) float64 {
	if x < 0 {
		x = 0
	}
	sum := 0.0
	for i := range h.P {
		sum += h.P[i] * math.Exp(-h.Lambda[i]*x) / h.Lambda[i]
	}
	return sum
}

// Rand implements Distribution: pick a phase, then draw from it.
func (h Hyperexponential) Rand(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	phase := len(h.P) - 1
	for i, p := range h.P {
		acc += p
		if u < acc {
			phase = i
			break
		}
	}
	return rng.ExpFloat64() / h.Lambda[phase]
}

// Name implements Distribution.
func (h Hyperexponential) Name() string {
	return fmt.Sprintf("hyperexp%d", len(h.P))
}

// Memoryless implements the Memoryless capability: a one-phase
// hyperexponential degenerates to a plain exponential; genuine
// mixtures are age-dependent (their hazard decreases with age).
func (h Hyperexponential) Memoryless() bool { return len(h.P) == 1 }

// String returns a short human-readable description.
func (h Hyperexponential) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hyperexp%d(", len(h.P))
	for i := range h.P {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "p=%.4g:λ=%.6g", h.P[i], h.Lambda[i])
	}
	b.WriteString(")")
	return b.String()
}
