// Package stats provides the descriptive and inferential statistics
// the paper's evaluation uses: sample summaries, Student-t confidence
// intervals for means, and the two-sided paired t-tests (significance
// level .05) behind the significance letters of Tables 1 and 3.
//
// It replaces the role of the Matlab statistics toolbox in the
// original study; the Student-t distribution is evaluated through the
// regularized incomplete beta function in internal/mathx.
package stats

import (
	"errors"
	"math"
	"sort"

	"github.com/cycleharvest/ckptsched/internal/mathx"
)

// ErrTooFewSamples is returned when an estimator needs more data than
// supplied.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN for
// fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean, s/sqrt(n).
func StdErr(xs []float64) float64 {
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Median returns the sample median (average of the two central order
// statistics for even n), or NaN for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

// StudentTCDF returns P(T <= t) for a Student-t random variable with
// df degrees of freedom.
func StudentTCDF(t float64, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	half := 0.5 * mathx.BetaInc(df/2, 0.5, x)
	if t > 0 {
		return 1 - half
	}
	return half
}

// StudentTQuantile returns the p-th quantile of the Student-t
// distribution with df degrees of freedom, by monotone bisection of
// the CDF.
func StudentTQuantile(p, df float64) float64 {
	switch {
	case df <= 0 || p <= 0 || p >= 1:
		return math.NaN()
	case p == 0.5:
		return 0
	}
	if p < 0.5 {
		return -StudentTQuantile(1-p, df)
	}
	lo, hi := 0.0, 2.0
	for StudentTCDF(hi, df) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for range 200 {
		mid := 0.5 * (lo + hi)
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(1, hi) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// CI is a two-sided confidence interval for a mean.
type CI struct {
	Mean      float64
	HalfWidth float64 // the ± part
	Level     float64 // e.g. 0.95
	N         int
}

// MeanCI returns the two-sided Student-t confidence interval for the
// mean of xs at the given level (e.g. 0.95 as in the paper's tables).
func MeanCI(xs []float64, level float64) (CI, error) {
	n := len(xs)
	if n < 2 {
		return CI{}, ErrTooFewSamples
	}
	t := StudentTQuantile(0.5+level/2, float64(n-1))
	return CI{
		Mean:      Mean(xs),
		HalfWidth: t * StdErr(xs),
		Level:     level,
		N:         n,
	}, nil
}

// TTestResult reports a paired, two-sided Student-t test.
type TTestResult struct {
	T         float64 // test statistic
	DF        float64 // degrees of freedom (n-1)
	P         float64 // two-sided p-value
	MeanDelta float64 // mean of a[i]-b[i]
}

// PairedTTest performs the two-sided paired t-test of H0: mean(a-b)=0,
// the test the paper applies between each pair of distributions at
// each checkpoint duration. a and b must have equal length >= 2.
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, errors.New("stats: paired t-test needs equal-length samples")
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, ErrTooFewSamples
	}
	d := make([]float64, n)
	for i := range a {
		d[i] = a[i] - b[i]
	}
	md := Mean(d)
	se := StdErr(d)
	df := float64(n - 1)
	if se == 0 {
		// All differences identical: either exactly zero (p=1) or a
		// deterministic shift (p=0).
		p := 1.0
		tstat := 0.0
		if md != 0 {
			p = 0
			tstat = math.Inf(sign(md))
		}
		return TTestResult{T: tstat, DF: df, P: p, MeanDelta: md}, nil
	}
	tstat := md / se
	p := 2 * (1 - StudentTCDF(math.Abs(tstat), df))
	if p > 1 {
		p = 1
	}
	return TTestResult{T: tstat, DF: df, P: p, MeanDelta: md}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// SignificantlyGreater reports whether mean(a) is statistically
// significantly greater than mean(b) under a two-sided paired t-test
// at significance level alpha — the criterion for the paper's
// significance letters.
func SignificantlyGreater(a, b []float64, alpha float64) bool {
	r, err := PairedTTest(a, b)
	if err != nil {
		return false
	}
	return r.P < alpha && r.MeanDelta > 0
}

// KSCriticalValue returns the approximate critical value of the
// one-sample Kolmogorov-Smirnov statistic at significance alpha for a
// sample of size n (asymptotic formula c(alpha)/sqrt(n)).
func KSCriticalValue(n int, alpha float64) float64 {
	if n <= 0 {
		return math.NaN()
	}
	c := math.Sqrt(-0.5 * math.Log(alpha/2))
	return c / math.Sqrt(float64(n))
}
