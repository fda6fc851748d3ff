package fit

import (
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// Model identifies one of the four availability models the paper
// compares.
type Model int

// The four model families evaluated throughout the paper's tables.
const (
	ModelExponential Model = iota
	ModelWeibull
	ModelHyperexp2
	ModelHyperexp3
)

// Models lists all four in the paper's column order.
var Models = []Model{ModelExponential, ModelWeibull, ModelHyperexp2, ModelHyperexp3}

// String returns the short name used in tables ("Exp.", "Weib.", ...).
func (m Model) String() string {
	switch m {
	case ModelExponential:
		return "exponential"
	case ModelWeibull:
		return "weibull"
	case ModelHyperexp2:
		return "hyperexp2"
	case ModelHyperexp3:
		return "hyperexp3"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Letter returns the single-symbol tag the paper uses in significance
// annotations: "e", "w", "2", "3".
func (m Model) Letter() string {
	switch m {
	case ModelExponential:
		return "e"
	case ModelWeibull:
		return "w"
	case ModelHyperexp2:
		return "2"
	case ModelHyperexp3:
		return "3"
	default:
		return "?"
	}
}

// ParseModel converts a model name (as printed by String, plus a few
// aliases) back to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "exponential", "exp", "e":
		return ModelExponential, nil
	case "weibull", "weib", "w":
		return ModelWeibull, nil
	case "hyperexp2", "hyper2", "2":
		return ModelHyperexp2, nil
	case "hyperexp3", "hyper3", "3":
		return ModelHyperexp3, nil
	}
	return 0, fmt.Errorf("fit: unknown model %q", s)
}

// Fit estimates the given model family from exact data.
func Fit(m Model, data []float64) (dist.Distribution, error) {
	return FitCensored(m, data, nil)
}

// FitCensored estimates the given model family from data, where
// censored[i] marks data[i] as right-censored: the resource was still
// available after data[i] seconds. censored is nil or as long as data;
// nil or all false is exact data, fitted bitwise as Fit fits it.
func FitCensored(m Model, data []float64, censored []bool) (dist.Distribution, error) {
	switch m {
	case ModelExponential:
		return exponential(data, censored)
	case ModelWeibull:
		return weibull(data, censored)
	case ModelHyperexp2:
		r, err := hyperexp(data, censored, 2, EMOptions{})
		return r.Dist, err
	case ModelHyperexp3:
		r, err := hyperexp(data, censored, 3, EMOptions{})
		return r.Dist, err
	}
	return nil, fmt.Errorf("fit: unknown model %v", m)
}

// Fitted pairs a model family with its estimated distribution and
// goodness-of-fit summaries on the training data.
type Fitted struct {
	Model  Model
	Dist   dist.Distribution
	LogLik float64
	AIC    float64
	BIC    float64
	KS     float64
}

// All fits all four families to data and reports goodness of fit for
// each. Families that fail to fit are omitted; an error is returned
// only if every family fails.
func All(data []float64) ([]Fitted, error) {
	var out []Fitted
	var firstErr error
	for _, m := range Models {
		d, err := Fit(m, data)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ll := LogLikelihood(d, data)
		k := NumParams(d)
		out = append(out, Fitted{
			Model:  m,
			Dist:   d,
			LogLik: ll,
			AIC:    AIC(ll, k),
			BIC:    BIC(ll, k, len(data)),
			KS:     KS(d, data),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fit: all families failed: %w", firstErr)
	}
	return out, nil
}

// BestByAIC returns the fit with the smallest AIC.
func BestByAIC(fits []Fitted) (Fitted, error) {
	if len(fits) == 0 {
		return Fitted{}, ErrNoData
	}
	best := fits[0]
	for _, f := range fits[1:] {
		if f.AIC < best.AIC {
			best = f
		}
	}
	return best, nil
}

// BestByKS returns the fit with the smallest Kolmogorov-Smirnov
// distance.
func BestByKS(fits []Fitted) (Fitted, error) {
	if len(fits) == 0 {
		return Fitted{}, ErrNoData
	}
	best := fits[0]
	for _, f := range fits[1:] {
		if f.KS < best.KS {
			best = f
		}
	}
	return best, nil
}
