package mathx

import (
	"fmt"
	"math"
)

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must
// have opposite signs (a zero at either endpoint is accepted). The
// returned root x satisfies |f(x)| small or |b-a| <= tol.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("mathx: Bisect: no sign change on [%g, %g] (f=%g, %g)", a, b, fa, fb)
	}
	for range 200 {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || b-a <= tol {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}

// ExpandBracket grows [a, b] geometrically until f changes sign across
// it, returning the bracketing interval. It expands the upper end only
// (the lower end stays fixed), which matches its use on positive
// parameter domains. maxGrow bounds the number of doublings.
func ExpandBracket(f func(float64) float64, a, b float64, maxGrow int) (float64, float64, error) {
	fa := f(a)
	fb := f(b)
	for range maxGrow {
		if math.Signbit(fa) != math.Signbit(fb) || fa == 0 || fb == 0 {
			return a, b, nil
		}
		b *= 2
		fb = f(b)
	}
	if math.Signbit(fa) != math.Signbit(fb) || fa == 0 || fb == 0 {
		return a, b, nil
	}
	return a, b, fmt.Errorf("mathx: ExpandBracket: no sign change up to b=%g", b)
}
