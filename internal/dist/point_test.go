package dist

import (
	"math"
	"testing"
)

// pointAbscissae covers the guards (x <= 0), the smallest subnormal,
// twenty-two decades of ordinary arguments, and the non-finite values.
func pointAbscissae() []float64 {
	xs := []float64{-1, 0, 5e-324, math.Inf(1), math.NaN()}
	for x := 1e-9; x <= 1e12; x *= 10 {
		xs = append(xs, x, 3.7*x)
	}
	return xs
}

// checkPoint fails unless Point(d, x) is bit for bit the three methods'
// results.
func checkPoint(t *testing.T, d Distribution, x float64) {
	t.Helper()
	s, cdf, pm := Point(d, x)
	got := [3]float64{s, cdf, pm}
	want := [3]float64{d.Survival(x), d.CDF(x), d.PartialMoment(x)}
	for i, name := range [3]string{"Survival", "CDF", "PartialMoment"} {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%v: Point(%g) %s = %x (%g), method gives %x (%g)",
				d, x, name, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestPointMatchesMethods pins the PointEvaluator contract: the
// one-pass evaluation returns exactly what Survival, CDF and
// PartialMoment return, so routing Γ through it cannot move a T_opt.
func TestPointMatchesMethods(t *testing.T) {
	var with []Distribution
	for _, lambda := range []float64{1e-9, 3e-4, 1, 2.5e6} {
		with = append(with, NewExponential(lambda))
	}
	for _, shape := range []float64{0.1, 0.43, 0.9, 1, 1.7, 5} {
		for _, scale := range []float64{1e-3, 3409, 1e8} {
			with = append(with, NewWeibull(shape, scale))
		}
	}
	with = append(with,
		NewHyperexponential([]float64{1}, []float64{2e-4}),
		NewHyperexponential([]float64{0.6, 0.4}, []float64{0.01, 0.0001}),
		// Rates eight decades apart: the fast phase underflows where
		// the slow one has barely begun to decay.
		NewHyperexponential([]float64{0.2, 0.5, 0.3}, []float64{1e3, 1e-1, 1e-5}),
		Hyperexponential{}, // the zero value has no phases and must not panic
	)
	for _, d := range with {
		if _, ok := d.(PointEvaluator); !ok {
			t.Fatalf("%v does not implement PointEvaluator", d)
		}
	}

	// The families without the capability go through the three-method
	// fallback.
	without := []Distribution{
		testMixture(),
		NewLogNormal(7, 1.5),
	}
	for _, d := range without {
		if _, ok := d.(PointEvaluator); ok {
			t.Fatalf("%s implements PointEvaluator; add it to the capable list", d.Name())
		}
	}

	for _, d := range append(with, without...) {
		for _, x := range pointAbscissae() {
			checkPoint(t, d, x)
		}
	}
}

// TestConditionalPartialMomentMatchesFormula pins Conditional.At, bit
// for bit, to Eq. 8's formulas over the base methods: the survival
// ratio and the partial-moment subtraction Γ has always used.
func TestConditionalPartialMomentMatchesFormula(t *testing.T) {
	bases := []Distribution{
		NewExponential(3e-4),
		NewWeibull(0.43, 3409),
		NewHyperexponential([]float64{0.6, 0.4}, []float64{0.01, 0.0001}),
		testMixture(),
	}
	for _, b := range bases {
		for _, age := range []float64{0, 1, 5000, 1e6, 1e9} {
			c := NewConditional(b, age)
			for _, x := range pointAbscissae() {
				wantS, wantPM := 1.0, 0.0
				if s := b.Survival(age); !(x <= 0) {
					wantS = 0
					if s > 0 {
						wantS = b.Survival(age+x) / s
						dF := b.CDF(age+x) - b.CDF(age)
						wantPM = (b.PartialMoment(age+x) - b.PartialMoment(age) - age*dF) / s
					}
				}
				s, pm := c.At(x)
				if math.Float64bits(s) != math.Float64bits(wantS) || math.Float64bits(pm) != math.Float64bits(wantPM) {
					t.Errorf("%s age %g: At(%g) = (%g, %g), formula gives (%g, %g)", b.Name(), age, x, s, pm, wantS, wantPM)
				}
			}
		}
	}
}

// FuzzPoint searches (family parameters, x) for a point where the
// one-pass evaluation and the three methods disagree in any bit.
func FuzzPoint(f *testing.F) {
	f.Add(uint8(0), 3e-4, 0.0, 0.0, 110.0)
	f.Add(uint8(1), 0.43, 3409.0, 0.0, 86400.0)
	f.Add(uint8(2), 0.6, 0.01, 0.0001, 5000.0)
	f.Add(uint8(3), 1e3, 1e-1, 1e-5, 1e4)
	f.Add(uint8(1), 0.1, 1e8, 0.0, 5e-324)
	f.Add(uint8(2), 0.5, 1e-9, 1e9, math.Inf(1))
	f.Fuzz(func(t *testing.T, family uint8, a, b, c, x float64) {
		positive := func(vs ...float64) bool {
			for _, v := range vs {
				if !(v > 0) || math.IsInf(v, 1) {
					return false
				}
			}
			return true
		}
		var d Distribution
		switch family % 4 {
		case 0:
			if !positive(a) {
				t.Skip()
			}
			d = NewExponential(a)
		case 1:
			if !positive(a, b) {
				t.Skip()
			}
			d = NewWeibull(a, b)
		case 2: // two phases: weight a against 1, rates b and c
			if !positive(a, b, c) {
				t.Skip()
			}
			d = NewHyperexponential([]float64{a, 1}, []float64{b, c})
		case 3: // three equally weighted phases
			if !positive(a, b, c) {
				t.Skip()
			}
			d = NewHyperexponential([]float64{1, 1, 1}, []float64{a, b, c})
		}
		checkPoint(t, d, x)
	})
}
