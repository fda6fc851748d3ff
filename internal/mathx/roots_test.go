package mathx

import (
	"math"
	"testing"
)

func TestBisectFindsSqrt2(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x, math.Sqrt2, 1e-10) {
		t.Errorf("Bisect sqrt(2) = %.12g", x)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	x, err := Bisect(f, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0 {
		t.Errorf("Bisect endpoint root = %g, want 0", x)
	}
}

func TestBisectNoSignChange(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-9); err == nil {
		t.Error("Bisect should fail without a sign change")
	}
}

func TestExpandBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	a, b, err := ExpandBracket(f, 1e-3, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !(f(a) < 0 && f(b) > 0) {
		t.Errorf("ExpandBracket returned non-bracketing [%g, %g]", a, b)
	}
}

func TestExpandBracketFailure(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*0 }
	if _, _, err := ExpandBracket(f, 1, 2, 5); err == nil {
		t.Error("ExpandBracket should fail for sign-constant f")
	}
}

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.25) * (x - 3.25) }
	x, fx := GoldenSection(f, 0, 10, 1e-10)
	if !almostEqual(x, 3.25, 1e-7) {
		t.Errorf("GoldenSection argmin = %.10g, want 3.25", x)
	}
	if fx > 1e-12 {
		t.Errorf("GoldenSection min value = %g, want ~0", fx)
	}
}

func TestGoldenSectionReversedInterval(t *testing.T) {
	f := func(x float64) float64 { return math.Abs(x - 1) }
	x, _ := GoldenSection(f, 5, -5, 1e-9)
	if !almostEqual(x, 1, 1e-6) {
		t.Errorf("GoldenSection on reversed interval = %g, want 1", x)
	}
}

func TestMinimizeScanGoldenMultimodal(t *testing.T) {
	// Two local minima; the global one is at x≈100 with value -2.
	f := func(x float64) float64 {
		return -math.Exp(-(x-1)*(x-1)) - 2*math.Exp(-(x-100)*(x-100)/100)
	}
	x, fx := MinimizeScanGolden(f, 0.01, 1000, 200, 1e-8)
	if math.Abs(x-100) > 1 {
		t.Errorf("MinimizeScanGolden argmin = %g, want ≈100", x)
	}
	if fx > -1.9 {
		t.Errorf("MinimizeScanGolden min = %g, want ≈-2", fx)
	}
}

func TestMinimizeScanGoldenDegenerateBounds(t *testing.T) {
	f := func(x float64) float64 { return x }
	x, _ := MinimizeScanGolden(f, -1, -2, 2, 1e-6) // invalid bounds sanitized
	if math.IsNaN(x) || x <= 0 {
		t.Errorf("MinimizeScanGolden with bad bounds returned %g", x)
	}
}

func TestSimpsonAdaptivePolynomial(t *testing.T) {
	// ∫₀¹ x³ dx = 1/4 (Simpson is exact for cubics).
	got := SimpsonAdaptive(func(x float64) float64 { return x * x * x }, 0, 1, 1e-12)
	if !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("∫x³ = %g, want 0.25", got)
	}
}

func TestSimpsonAdaptiveExp(t *testing.T) {
	got := SimpsonAdaptive(math.Exp, 0, 2, 1e-12)
	want := math.Exp(2) - 1
	if !almostEqual(got, want, 1e-10) {
		t.Errorf("∫eˣ = %.12g, want %.12g", got, want)
	}
}

func TestSimpsonAdaptiveReversedAndEmpty(t *testing.T) {
	if got := SimpsonAdaptive(math.Exp, 2, 2, 1e-9); got != 0 {
		t.Errorf("empty interval integral = %g", got)
	}
	fwd := SimpsonAdaptive(math.Exp, 0, 1, 1e-12)
	rev := SimpsonAdaptive(math.Exp, 1, 0, 1e-12)
	if !almostEqual(fwd, -rev, 1e-12) {
		t.Errorf("reversed interval: %g vs %g", fwd, rev)
	}
}
