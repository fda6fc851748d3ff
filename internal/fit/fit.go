// Package fit estimates the parameters of availability distributions
// from observed duration samples (§3.4 of the paper): closed-form
// maximum likelihood for the exponential, profile-likelihood maximum
// likelihood for the Weibull, and expectation-maximization for k-phase
// hyperexponentials.
//
// Every estimator takes its sample as durations plus an optional
// parallel censored []bool: censored[i] records that the resource was
// still available after data[i] seconds (the monitor was still running
// when the measurement campaign ended — the paper's §5.3
// right-censoring), so the true lifetime exceeds data[i]. A nil or
// all-false censored is exact data, and one body per family serves
// both: on exact data the censored terms vanish and the fit is bitwise
// the classical estimator.
//
// The package stands in for the Matlab `mle` routine and the EMPht
// phase-type fitting package used by the original study: for the
// hyperexponential subclass of phase-type distributions, the EMPht EM
// recursion reduces to the classical exponential-mixture EM
// implemented here.
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/mathx"
)

// DurationFloor is the smallest duration (seconds) the estimators
// accept. Occupancy monitors can record zero-length occupancies (a job
// evicted before its first wakeup); zero breaks the Weibull and
// hyperexponential likelihoods, so observations are clamped up to this
// floor. One second is far below any duration that affects a
// checkpoint schedule.
const DurationFloor = 1.0

// ErrNoData is returned when an estimator is given no observations.
var ErrNoData = errors.New("fit: no observations")

// clean copies data, clamping values below DurationFloor and dropping
// non-finite entries, and carries the censored flags (nil, or one per
// datum) along with them: cens is nil exactly when censored is. events
// counts the uncensored observations kept. It returns an error if
// nothing usable remains or every observation is censored.
func clean(data []float64, censored []bool) (xs []float64, cens []bool, events int, err error) {
	if censored != nil && len(censored) != len(data) {
		return nil, nil, 0, fmt.Errorf("fit: %d censored flags for %d observations", len(censored), len(data))
	}
	xs = make([]float64, 0, len(data))
	if censored != nil {
		cens = make([]bool, 0, len(data))
	}
	for i, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x < DurationFloor {
			x = DurationFloor
		}
		xs = append(xs, x)
		if cens != nil {
			cens = append(cens, censored[i])
		}
		if censored == nil || !censored[i] {
			events++
		}
	}
	if len(xs) == 0 {
		return nil, nil, 0, ErrNoData
	}
	if events == 0 {
		return nil, nil, 0, errors.New("fit: all observations censored; lifetimes unidentifiable")
	}
	return xs, cens, events, nil
}

// checkEstimate returns an error unless every estimated parameter is
// finite and positive. A history whose sums overflow float64 (durations
// near 1e308) drives a closed-form estimate to 0 or +Inf, which the
// dist constructors reject by panicking; this is where a fit says so
// instead.
func checkEstimate(family string, params ...float64) error {
	for _, v := range params {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("fit: %s estimate %v is not finite and positive", family, params)
		}
	}
	return nil
}

// Exponential fits an exponential distribution to exact data by
// maximum likelihood: λ̂ = 1 / sample mean.
func Exponential(data []float64) (dist.Exponential, error) {
	return exponential(data, nil)
}

// exponential is the exponential MLE with right censoring:
// λ̂ = (#events) / Σ(all exposure times), computed as
// 1 / (exposure / events) so that on exact data it is bitwise
// 1 / sample mean.
func exponential(data []float64, censored []bool) (dist.Exponential, error) {
	xs, _, events, err := clean(data, censored)
	if err != nil {
		return dist.Exponential{}, err
	}
	exposure := 0.0
	for _, x := range xs {
		exposure += x
	}
	lambda := 1 / (exposure / float64(events))
	if err := checkEstimate("exponential", lambda); err != nil {
		return dist.Exponential{}, err
	}
	return dist.NewExponential(lambda), nil
}

// Weibull fits a two-parameter Weibull distribution to exact data by
// maximum likelihood; see weibull for the estimator.
func Weibull(data []float64) (dist.Weibull, error) {
	return weibull(data, nil)
}

// weibull is the Weibull MLE with right censoring. With d uncensored
// events, the shape α̂ solves the profile-likelihood equation
//
//	Σ_all xᵢ^α ln xᵢ / Σ_all xᵢ^α − 1/α − (1/d) Σ_events ln xᵢ = 0,
//
// found by bracket expansion and bisection; the scale then follows in
// closed form, β̂ = (Σ_all xᵢ^α̂ / d)^(1/α̂). All observations contribute
// exposure, only events contribute the log-mean term; on exact data
// d = n and this is the classical estimator.
func weibull(data []float64, censored []bool) (dist.Weibull, error) {
	xs, cens, events, err := clean(data, censored)
	if err != nil {
		return dist.Weibull{}, err
	}
	d := float64(events)
	meanLog := 0.0
	xmax := xs[0]
	allEqual := true
	for j, x := range xs {
		if cens == nil || !cens[j] {
			meanLog += math.Log(x)
		}
		if x > xmax {
			xmax = x
		}
		if x != xs[0] {
			allEqual = false
		}
	}
	meanLog /= d
	if allEqual {
		// Degenerate sample: the likelihood is unbounded in α. Return
		// a sharply peaked but finite fit.
		return dist.NewWeibull(50, xs[0]), nil
	}

	// Profile score in α. Computed with the max-rescaling trick so that
	// x^α does not overflow for large α.
	score := func(alpha float64) float64 {
		var sw, swl float64 // Σ (x/xmax)^α, Σ (x/xmax)^α ln x
		for _, x := range xs {
			w := math.Pow(x/xmax, alpha)
			sw += w
			swl += w * math.Log(x)
		}
		return swl/sw - 1/alpha - meanLog
	}
	lo, hi, err := mathx.ExpandBracket(score, 1e-3, 1.0, 40)
	if err != nil {
		return dist.Weibull{}, fmt.Errorf("fit: weibull shape bracket: %w", err)
	}
	alpha, err := mathx.Bisect(score, lo, hi, 1e-10)
	if err != nil {
		return dist.Weibull{}, fmt.Errorf("fit: weibull shape solve: %w", err)
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x, alpha)
	}
	beta := math.Pow(sum/d, 1/alpha)
	if err := checkEstimate("weibull", alpha, beta); err != nil {
		return dist.Weibull{}, err
	}
	return dist.NewWeibull(alpha, beta), nil
}

// LogNormal fits a lognormal distribution by maximum likelihood:
// µ̂ and σ̂ are the mean and (MLE, /n) standard deviation of the log
// durations. The lognormal is not one of the paper's four tabulated
// families but is a standard comparator in the availability-modeling
// literature and is exposed for model-selection studies.
func LogNormal(data []float64) (dist.LogNormal, error) {
	xs, _, _, err := clean(data, nil)
	if err != nil {
		return dist.LogNormal{}, err
	}
	n := float64(len(xs))
	mu := 0.0
	for _, x := range xs {
		mu += math.Log(x)
	}
	mu /= n
	ss := 0.0
	for _, x := range xs {
		d := math.Log(x) - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / n)
	if sigma <= 0 {
		// Degenerate sample (all values equal): a sharply peaked fit.
		sigma = 1e-6
	}
	return dist.NewLogNormal(mu, sigma), nil
}

// LogLikelihood returns the log-likelihood of exact data under d.
// Values are cleaned the same way the estimators clean them, so
// likelihoods of fits to the same data are comparable.
func LogLikelihood(d dist.Distribution, data []float64) float64 {
	return CensoredLogLikelihood(d, data, nil)
}

// CensoredLogLikelihood evaluates Σ_events ln f(x) + Σ_censored ln S(x)
// under d, with censored as for FitCensored.
func CensoredLogLikelihood(d dist.Distribution, data []float64, censored []bool) float64 {
	xs, cens, _, err := clean(data, censored)
	if err != nil {
		return math.Inf(-1)
	}
	ll := 0.0
	for j, x := range xs {
		var v float64
		if cens != nil && cens[j] {
			v = d.Survival(x)
		} else {
			v = d.PDF(x)
		}
		if v <= 0 {
			return math.Inf(-1)
		}
		ll += math.Log(v)
	}
	return ll
}

// AIC returns the Akaike information criterion 2k − 2·lnL for a model
// with k free parameters.
func AIC(logLik float64, params int) float64 {
	return 2*float64(params) - 2*logLik
}

// BIC returns the Bayesian information criterion k·ln(n) − 2·lnL.
func BIC(logLik float64, params, n int) float64 {
	return float64(params)*math.Log(float64(n)) - 2*logLik
}

// KS returns the Kolmogorov-Smirnov distance between the empirical
// distribution of data and model.
func KS(model dist.Distribution, data []float64) float64 {
	xs, _, _, err := clean(data, nil)
	if err != nil {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	maxD := 0.0
	for i, x := range xs {
		fm := model.CDF(x)
		lo := float64(i) / n // empirical CDF just below x
		hi := float64(i+1) / n
		if d := fm - lo; d > maxD {
			maxD = d
		}
		if d := hi - fm; d > maxD {
			maxD = d
		}
	}
	return maxD
}

// NumParams returns the number of free parameters of the supported
// families (used by AIC/BIC): 1 for exponential, 2 for Weibull, 2k−1
// for a k-phase hyperexponential. Unknown families report 0.
func NumParams(d dist.Distribution) int {
	switch v := d.(type) {
	case dist.Exponential:
		return 1
	case dist.Weibull:
		return 2
	case dist.LogNormal:
		return 2
	case dist.Hyperexponential:
		return 2*v.Phases() - 1
	default:
		return 0
	}
}

// quantileGroups splits sorted data into k contiguous groups of nearly
// equal size, returning the mean of each group. It seeds the EM rates.
func quantileGroups(sorted []float64, k int) []float64 {
	means := make([]float64, k)
	n := len(sorted)
	for i := range k {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n {
			hi = n
		}
		sum := 0.0
		for _, x := range sorted[lo:hi] {
			sum += x
		}
		means[i] = sum / float64(hi-lo)
	}
	return means
}

// EMOptions tunes the hyperexponential EM fit.
type EMOptions struct {
	// MaxIter bounds EM iterations (default 500).
	MaxIter int
	// Tol stops EM when the log-likelihood improves by less than Tol
	// (default 1e-9, relative to |logLik|).
	Tol float64
}

// EMResult reports the outcome of a hyperexponential EM fit.
type EMResult struct {
	Dist    dist.Hyperexponential
	LogLik  float64
	Iters   int
	Converg bool
}

// Hyperexp fits a k-phase hyperexponential to exact data by
// expectation-maximization; see hyperexp for the recursion.
func Hyperexp(data []float64, k int, opts EMOptions) (EMResult, error) {
	return hyperexp(data, nil, k, opts)
}

// hyperexp fits a k-phase hyperexponential by EM with right censoring,
// seeded deterministically from the sample quantile structure so that
// fits are reproducible.
//
// E step: responsibilities γᵢⱼ ∝ pᵢλᵢe^(-λᵢxⱼ) (density) for an event,
// γᵢⱼ ∝ pᵢe^(-λᵢxⱼ) (per-phase survival) for a censored observation.
// M step: pᵢ = mean over j of γᵢⱼ; λᵢ = Σⱼγᵢⱼ / Σⱼγᵢⱼℓᵢⱼ, where the
// lifetime ℓᵢⱼ is xⱼ for an event and xⱼ + 1/λᵢ for a censored
// observation (its expected total lifetime within phase i, by
// memorylessness).
//
// Every iteration provably does not decrease the likelihood; the test
// suite checks this invariant directly.
func hyperexp(data []float64, censored []bool, k int, opts EMOptions) (EMResult, error) {
	if k < 1 {
		return EMResult{}, fmt.Errorf("fit: hyperexponential needs k >= 1, got %d", k)
	}
	xs, cens, _, err := clean(data, censored)
	if err != nil {
		return EMResult{}, err
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 500
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	n := len(xs)
	if n < k {
		// Not enough observations to distinguish phases; collapse to
		// as many phases as points.
		k = n
	}

	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)

	// Deterministic initialization: rates from quantile-group means,
	// slightly separated when groups tie; uniform weights.
	p := make([]float64, k)
	lam := make([]float64, k)
	for i, m := range quantileGroups(sorted, k) {
		p[i] = 1 / float64(k)
		if m <= 0 {
			m = DurationFloor
		}
		lam[i] = 1 / m
	}
	for i := 1; i < k; i++ {
		if lam[i] >= lam[i-1] {
			lam[i] = lam[i-1] * 0.5 // enforce distinct, decreasing rates
		}
	}

	const (
		lamMin = 1e-12
		lamMax = 1e3 // rates above 1/ms are meaningless for seconds data
		pMin   = 1e-12
	)

	// Responsibility matrix, one contiguous row-major k×n slice:
	// gamma[i*n+j] is phase i's responsibility for observation j. The
	// M step walks each row sequentially, so one backing array keeps
	// the EM inner loops on consecutive cache lines.
	gamma := make([]float64, k*n)
	prevLL := math.Inf(-1)
	iters := 0
	converged := false
	for iter := range opts.MaxIter {
		iters = iter + 1
		// E step + log-likelihood in one pass.
		ll := 0.0
		for j, x := range xs {
			censored := cens != nil && cens[j]
			den := 0.0
			for i := range k {
				var g float64
				if censored {
					g = p[i] * math.Exp(-lam[i]*x) // survival
				} else {
					g = p[i] * lam[i] * math.Exp(-lam[i]*x) // density
				}
				gamma[i*n+j] = g
				den += g
			}
			if den <= 0 {
				// All phases assign zero density (extreme outlier);
				// assign it to the slowest phase.
				slow := 0
				for i := 1; i < k; i++ {
					if lam[i] < lam[slow] {
						slow = i
					}
				}
				for i := range k {
					gamma[i*n+j] = 0
				}
				gamma[slow*n+j] = 1
				ll += math.Log(pMin)
				continue
			}
			for i := range k {
				gamma[i*n+j] /= den
			}
			ll += math.Log(den)
		}
		// M step.
		for i := range k {
			var sg, sgx float64
			row := gamma[i*n : (i+1)*n]
			for j, x := range xs {
				sg += row[j]
				if cens != nil && cens[j] {
					x += 1 / lam[i] // expected residual within phase i
				}
				sgx += row[j] * x
			}
			p[i] = math.Max(sg/float64(n), pMin)
			if sgx <= 0 {
				lam[i] = lamMax
			} else {
				lam[i] = math.Min(math.Max(sg/sgx, lamMin), lamMax)
			}
		}
		if ll-prevLL < opts.Tol*math.Max(1, math.Abs(ll)) && iter > 0 {
			prevLL = ll
			converged = true
			break
		}
		prevLL = ll
	}

	// No checkEstimate here: the M step clamps every pᵢ to [pMin, 1]
	// and λᵢ to [lamMin, lamMax], so EM estimates are finite and
	// positive by construction (FuzzFit holds it to that).
	h := dist.NewHyperexponential(p, lam)
	metrics.emFits.Inc()
	metrics.emIters.Add(uint64(iters))
	return EMResult{Dist: h, LogLik: prevLL, Iters: iters, Converg: converged}, nil
}
