package mathx

import "math"

// SimpsonAdaptive integrates f over [a, b] with adaptive Simpson's
// rule to absolute tolerance tol.
//
// The analytical models use closed-form partial moments; this routine
// is the generic fallback and the oracle the property tests compare
// against.
func SimpsonAdaptive(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if a > b {
		return -SimpsonAdaptive(f, b, a, tol)
	}
	fa, fb := f(a), f(b)
	m := 0.5 * (a + b)
	fm := f(m)
	whole := simpson(a, b, fa, fm, fb)
	return adaptiveAux(f, a, b, fa, fm, fb, whole, tol, 50)
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveAux(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveAux(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveAux(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}
