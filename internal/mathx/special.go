// Package mathx provides the special functions and numerical routines
// the checkpoint-scheduling models depend on: regularized incomplete
// gamma and beta functions, safeguarded root finding, adaptive
// quadrature, and bracketed Golden Section minimization.
//
// The package replaces the roles Matlab and Numerical Recipes in C play
// in the original paper. All routines are pure functions over float64
// and are safe for concurrent use.
package mathx

import (
	"errors"
	"math"
)

// Eps is the convergence tolerance used by the iterative special
// function evaluations.
const Eps = 3e-14

// maxIter bounds the series/continued-fraction iterations.
const maxIter = 500

// ErrNoConverge is returned when an iterative routine exhausts its
// iteration budget without meeting its tolerance.
var ErrNoConverge = errors.New("mathx: iteration did not converge")

// GammaP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) for a > 0, x >= 0.
//
// P(a, x) is the CDF of a Gamma(a, 1) random variable evaluated at x.
// It is used for the Weibull partial moment ∫₀ˣ t·f(t) dt.
func GammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQContinuedFraction(a, x)
}

// GammaQ computes the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 1
	case math.IsInf(x, 1):
		return 0
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for range maxIter {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*Eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a,x) by its continued fraction,
// valid for x >= a+1 (modified Lentz's method).
func gammaQContinuedFraction(a, x float64) float64 {
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < Eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// BetaInc computes the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and 0 <= x <= 1.
//
// I_x(a, b) is the CDF of a Beta(a, b) random variable; it underlies
// the Student-t distribution used for the paper's confidence intervals
// and paired t-tests.
func BetaInc(a, b, x float64) float64 {
	switch {
	case a <= 0 || b <= 0 || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function (modified Lentz's method).
func betaCF(a, b, x float64) float64 {
	const fpmin = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < Eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
