package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Mixture is a finite mixture of arbitrary component lifetime
// distributions. Desktop availability is naturally multi-modal —
// short interactive-use gaps mixed with long overnight and weekend
// stretches — and a mixture of a short-scale and a long-scale
// component reproduces that bimodality, which none of the single
// parametric families can. The synthetic Condor pool uses mixtures for
// exactly this reason.
//
// All quantities are closed-form weighted sums of the component
// quantities, so mixtures are as cheap inside the Markov model as the
// primitive families.
type Mixture struct {
	W          []float64 // normalized weights
	Components []Distribution
}

// NewMixture builds a mixture with the given weights (normalized
// internally). It panics on structural errors, matching the other
// constructors in this package.
func NewMixture(w []float64, components []Distribution) Mixture {
	if len(w) == 0 || len(w) != len(components) {
		panic(fmt.Sprintf("dist: mixture needs matching non-empty weights and components, got %d and %d", len(w), len(components)))
	}
	sum := 0.0
	for i, v := range w {
		if v < 0 {
			panic(fmt.Sprintf("dist: mixture weight %d is negative: %g", i, v))
		}
		if components[i] == nil {
			panic(fmt.Sprintf("dist: mixture component %d is nil", i))
		}
		sum += v
	}
	if !(sum > 0) {
		panic("dist: mixture weights sum to zero")
	}
	nw := make([]float64, len(w))
	for i := range w {
		nw[i] = w[i] / sum
	}
	nc := make([]Distribution, len(components))
	copy(nc, components)
	return Mixture{W: nw, Components: nc}
}

// PDF implements Distribution.
func (m Mixture) PDF(x float64) float64 {
	sum := 0.0
	for i := range m.W {
		sum += m.W[i] * m.Components[i].PDF(x)
	}
	return sum
}

// CDF implements Distribution.
func (m Mixture) CDF(x float64) float64 {
	sum := 0.0
	for i := range m.W {
		sum += m.W[i] * m.Components[i].CDF(x)
	}
	return sum
}

// Survival implements Distribution.
func (m Mixture) Survival(x float64) float64 {
	sum := 0.0
	for i := range m.W {
		sum += m.W[i] * m.Components[i].Survival(x)
	}
	return sum
}

// Quantile implements Distribution by numeric inversion.
func (m Mixture) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return quantileByBisection(m.CDF, p)
}

// Mean implements Distribution.
func (m Mixture) Mean() float64 {
	sum := 0.0
	for i := range m.W {
		sum += m.W[i] * m.Components[i].Mean()
	}
	return sum
}

// PartialMoment implements Distribution.
func (m Mixture) PartialMoment(x float64) float64 {
	sum := 0.0
	for i := range m.W {
		sum += m.W[i] * m.Components[i].PartialMoment(x)
	}
	return sum
}

// SurvivalIntegral implements SurvivalIntegraler as the weighted sum
// of the components' integrals. A component without the capability
// makes the sum NaN: there is no closed form to fall back on.
func (m Mixture) SurvivalIntegral(x float64) float64 {
	sum := 0.0
	for i := range m.W {
		si, ok := m.Components[i].(SurvivalIntegraler)
		if !ok {
			return math.NaN()
		}
		sum += m.W[i] * si.SurvivalIntegral(x)
	}
	return sum
}

// Rand implements Distribution: pick a component, draw from it.
func (m Mixture) Rand(rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	idx := len(m.W) - 1
	for i, w := range m.W {
		acc += w
		if u < acc {
			idx = i
			break
		}
	}
	return m.Components[idx].Rand(rng)
}

// Name implements Distribution.
func (m Mixture) Name() string {
	parts := make([]string, len(m.Components))
	for i, c := range m.Components {
		parts[i] = c.Name()
	}
	return "mixture(" + strings.Join(parts, "+") + ")"
}
