package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	return diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestGammaPKnownValues(t *testing.T) {
	// Reference values from Abramowitz & Stegun / independent numerical
	// evaluation of the regularized lower incomplete gamma function.
	cases := []struct {
		a, x, want float64
	}{
		{1, 0, 0},
		{1, 1, 1 - math.Exp(-1)},           // P(1,x) is the Exp(1) CDF
		{1, 2.5, 1 - math.Exp(-2.5)},       //
		{2, 2, 1 - 3*math.Exp(-2)},         // P(2,x) = 1-(1+x)e^-x
		{0.5, 0.25, math.Erf(0.5)},         // P(1/2, x) = erf(sqrt x)
		{0.5, 4, math.Erf(2)},              //
		{3, 3, 1 - math.Exp(-3)*(1+3+4.5)}, // P(3,x)=1-e^-x(1+x+x^2/2)
		{5, 10, 1 - math.Exp(-10)*(1+10+50+1000.0/6+10000.0/24)},
	}
	for _, c := range cases {
		got := GammaP(c.a, c.x)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("GammaP(%g, %g) = %.15g, want %.15g", c.a, c.x, got, c.want)
		}
	}
}

func TestGammaPQComplement(t *testing.T) {
	f := func(a, x float64) bool {
		a = 0.05 + math.Abs(math.Mod(a, 20))
		x = math.Abs(math.Mod(x, 50))
		p, q := GammaP(a, x), GammaQ(a, x)
		return almostEqual(p+q, 1, 1e-10) && p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaPMonotoneInX(t *testing.T) {
	f := func(a, x1, x2 float64) bool {
		a = 0.05 + math.Abs(math.Mod(a, 10))
		x1 = math.Abs(math.Mod(x1, 30))
		x2 = math.Abs(math.Mod(x2, 30))
		lo, hi := math.Min(x1, x2), math.Max(x1, x2)
		return GammaP(a, lo) <= GammaP(a, hi)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if got := GammaP(2, math.Inf(1)); got != 1 {
		t.Errorf("GammaP(2, +Inf) = %g, want 1", got)
	}
	if got := GammaP(2, -1); got != 0 {
		t.Errorf("GammaP(2, -1) = %g, want 0", got)
	}
	if got := GammaP(-1, 1); !math.IsNaN(got) {
		t.Errorf("GammaP(-1, 1) = %g, want NaN", got)
	}
	if got := GammaQ(3, 0); got != 1 {
		t.Errorf("GammaQ(3, 0) = %g, want 1", got)
	}
}

// TestLowerIncompleteGammaVsQuadrature checks GammaP against direct
// quadrature of γ(a, x) = ∫₀ˣ t^(a-1) e^(-t) dt = P(a, x)·Γ(a).
func TestLowerIncompleteGammaVsQuadrature(t *testing.T) {
	for _, a := range []float64{0.4, 1, 1.7, 3.2, 6} {
		for _, x := range []float64{0.1, 0.9, 2, 7} {
			// The integrand is singular at 0 for a < 1; integrate from
			// eps and add the analytic head ∫₀^eps t^(a-1) dt = eps^a/a
			// (e^-t ≈ 1 there).
			const eps = 1e-12
			want := math.Pow(eps, a)/a + SimpsonAdaptive(func(t float64) float64 {
				return math.Pow(t, a-1) * math.Exp(-t)
			}, eps, x, 1e-12)
			got := GammaP(a, x) * math.Gamma(a)
			if !almostEqual(got, want, 1e-7) {
				t.Errorf("γ(%g, %g) = %g, quadrature %g", a, x, got, want)
			}
		}
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		{1, 1, 0.3, 0.3},       // uniform CDF
		{2, 1, 0.5, 0.25},      // I_x(2,1) = x^2
		{1, 2, 0.5, 0.75},      // I_x(1,2) = 1-(1-x)^2
		{2, 2, 0.5, 0.5},       // symmetric
		{0.5, 0.5, 0.5, 0.5},   // arcsine distribution median
		{5, 3, 0.7, 0.6470695}, // 105·[x⁵/5 − x⁶/3 + x⁷/7] at 0.7
	}
	for _, c := range cases {
		got := BetaInc(c.a, c.b, c.x)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("BetaInc(%g, %g, %g) = %.10g, want %.10g", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestBetaIncSymmetry(t *testing.T) {
	f := func(a, b, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 10))
		b = 0.1 + math.Abs(math.Mod(b, 10))
		x = math.Abs(math.Mod(x, 1))
		lhs := BetaInc(a, b, x)
		rhs := 1 - BetaInc(b, a, 1-x)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetaIncEdgeCases(t *testing.T) {
	if got := BetaInc(2, 3, 0); got != 0 {
		t.Errorf("BetaInc(2,3,0) = %g, want 0", got)
	}
	if got := BetaInc(2, 3, 1); got != 1 {
		t.Errorf("BetaInc(2,3,1) = %g, want 1", got)
	}
	if got := BetaInc(0, 1, 0.5); !math.IsNaN(got) {
		t.Errorf("BetaInc(0,1,0.5) = %g, want NaN", got)
	}
}

func TestBetaIncVsQuadrature(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{{1.5, 2.5}, {3, 4}, {0.7, 0.9}, {8, 2}} {
		norm := math.Exp(lgamma(c.a+c.b) - lgamma(c.a) - lgamma(c.b))
		for _, x := range []float64{0.1, 0.35, 0.6, 0.92} {
			want := norm * SimpsonAdaptive(func(t float64) float64 {
				return math.Pow(t, c.a-1) * math.Pow(1-t, c.b-1)
			}, 1e-12, x, 1e-13)
			got := BetaInc(c.a, c.b, x)
			if !almostEqual(got, want, 1e-6) {
				t.Errorf("BetaInc(%g, %g, %g) = %g, quadrature %g", c.a, c.b, x, got, want)
			}
		}
	}
}
