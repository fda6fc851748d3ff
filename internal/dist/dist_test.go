package dist

import (
	"math"
	"math/rand"
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

// testFamilies returns representatives of each family, covering heavy
// and light tails.
func testFamilies() []Distribution {
	return []Distribution{
		NewExponential(0.001),
		NewExponential(2.5),
		NewWeibull(0.43, 3409), // the paper's measured machine
		NewWeibull(1.7, 100),
		NewHyperexponential([]float64{0.6, 0.4}, []float64{0.01, 0.0001}),
		NewHyperexponential([]float64{0.5, 0.3, 0.2}, []float64{0.05, 0.002, 0.00008}),
		NewLogNormal(6.5, 1.2),
		NewMixture([]float64{0.6, 0.4}, []Distribution{
			NewExponential(1.0 / 300),
			NewWeibull(0.7, 4*3600),
		}),
	}
}

func TestCDFBasicShape(t *testing.T) {
	for _, d := range testFamilies() {
		if got := d.CDF(0); got != 0 {
			t.Errorf("%s: CDF(0) = %g, want 0", d.Name(), got)
		}
		if got := d.CDF(-5); got != 0 {
			t.Errorf("%s: CDF(-5) = %g, want 0", d.Name(), got)
		}
		if got := d.CDF(math.Inf(1)); !almostEqual(got, 1, 1e-12) {
			t.Errorf("%s: CDF(+Inf) = %g, want 1", d.Name(), got)
		}
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range testFamilies() {
		d := d
		f := func(x1, x2 float64) bool {
			x1 = math.Abs(math.Mod(x1, 1e6))
			x2 = math.Abs(math.Mod(x2, 1e6))
			lo, hi := math.Min(x1, x2), math.Max(x1, x2)
			c1, c2 := d.CDF(lo), d.CDF(hi)
			return c1 >= 0 && c2 <= 1 && c1 <= c2+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestSurvivalComplementsCDF(t *testing.T) {
	for _, d := range testFamilies() {
		d := d
		f := func(x float64) bool {
			x = math.Abs(math.Mod(x, 1e5))
			return almostEqual(d.CDF(x)+d.Survival(x), 1, 1e-10)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestPDFNonNegative(t *testing.T) {
	for _, d := range testFamilies() {
		d := d
		f := func(x float64) bool {
			x = math.Abs(math.Mod(x, 1e5)) + 1e-9
			return d.PDF(x) >= 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	// Integrate the density between interior quantiles (the density
	// may be singular at the origin, and a fixed grid cannot span the
	// huge dynamic ranges of the heavy-tailed families); the integral
	// must recover the CDF increment.
	for _, d := range testFamilies() {
		for _, span := range [][2]float64{{0.2, 0.5}, {0.5, 0.8}, {0.1, 0.9}} {
			a, b := d.Quantile(span[0]), d.Quantile(span[1])
			got := quadrature(d.PDF, a, b)
			want := d.CDF(b) - d.CDF(a)
			if !almostEqual(got, want, 1e-5) {
				t.Errorf("%s: ∫pdf over q[%g,%g] = %g, ΔCDF = %g", d.Name(), span[0], span[1], got, want)
			}
		}
	}
}

// quadrature is a plain composite Simpson integration used only by the
// tests (independent of mathx so that dist tests don't assume the
// production quadrature is correct).
func quadrature(f func(float64) float64, a, b float64) float64 {
	const n = 20000
	h := (b - a) / n
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 0 {
			sum += 2 * f(x)
		} else {
			sum += 4 * f(x)
		}
	}
	return sum * h / 3
}

func TestQuantileInvertsCDF(t *testing.T) {
	for _, d := range testFamilies() {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := d.Quantile(p)
			if got := d.CDF(x); !almostEqual(got, p, 1e-6) {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", d.Name(), p, got)
			}
		}
		if got := d.Quantile(0); got != 0 {
			t.Errorf("%s: Quantile(0) = %g, want 0", d.Name(), got)
		}
		if got := d.Quantile(1); !math.IsInf(got, 1) {
			t.Errorf("%s: Quantile(1) = %g, want +Inf", d.Name(), got)
		}
	}
}

func TestPartialMomentMatchesQuadrature(t *testing.T) {
	for _, d := range testFamilies() {
		for _, x := range []float64{0.5, 10, 300, 8000} {
			got := d.PartialMoment(x)
			want := NumericPartialMoment(d, x)
			if !almostEqual(got, want, 1e-5) {
				t.Errorf("%s: PartialMoment(%g) = %g, quadrature %g", d.Name(), x, got, want)
			}
		}
		if got := d.PartialMoment(0); got != 0 {
			t.Errorf("%s: PartialMoment(0) = %g, want 0", d.Name(), got)
		}
		if got := d.PartialMoment(-3); got != 0 {
			t.Errorf("%s: PartialMoment(-3) = %g, want 0", d.Name(), got)
		}
	}
}

func TestPartialMomentConvergesToMean(t *testing.T) {
	for _, d := range testFamilies() {
		// At a very high quantile the partial moment accounts for
		// nearly the entire mean.
		x := d.Quantile(1 - 1e-9)
		if math.IsInf(x, 1) {
			continue
		}
		got := d.PartialMoment(x)
		if !almostEqual(got, d.Mean(), 1e-3) {
			t.Errorf("%s: PartialMoment(q(1-1e-9)) = %g, mean %g", d.Name(), got, d.Mean())
		}
	}
}

func TestPartialMomentMonotone(t *testing.T) {
	for _, d := range testFamilies() {
		d := d
		f := func(x1, x2 float64) bool {
			x1 = math.Abs(math.Mod(x1, 1e5))
			x2 = math.Abs(math.Mod(x2, 1e5))
			lo, hi := math.Min(x1, x2), math.Max(x1, x2)
			return d.PartialMoment(lo) <= d.PartialMoment(hi)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestRandMatchesMeanAndCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range testFamilies() {
		const n = 200000
		sum := 0.0
		below := 0
		med := d.Quantile(0.5)
		for range n {
			v := d.Rand(rng)
			if v < 0 {
				t.Fatalf("%s: negative variate %g", d.Name(), v)
			}
			sum += v
			if v <= med {
				below++
			}
		}
		mean := sum / n
		// Heavy-tailed families converge slowly; compare loosely.
		if !almostEqual(mean, d.Mean(), 0.15) {
			t.Errorf("%s: sample mean %g, analytic %g", d.Name(), mean, d.Mean())
		}
		frac := float64(below) / n
		if math.Abs(frac-0.5) > 0.01 {
			t.Errorf("%s: fraction below median = %g", d.Name(), frac)
		}
	}
}

// meanResidualLife is E[X − t | X > t] = SI(t)/S(t), the expected
// remaining lifetime of a resource that has been available for t
// seconds. For heavy-tailed families it grows with t, which is the
// mechanism behind the paper's aperiodic schedules.
func meanResidualLife(d Distribution, t float64) float64 {
	return d.(SurvivalIntegraler).SurvivalIntegral(t) / d.Survival(t)
}

// hazard is the instantaneous failure intensity f(t)/S(t) at age t.
func hazard(d Distribution, t float64) float64 {
	return d.PDF(t) / d.Survival(t)
}

func TestMeanResidualLife(t *testing.T) {
	// Exponential: constant MRL = 1/λ at every age.
	e := NewExponential(0.01)
	for _, age := range []float64{0, 10, 1000, 50000} {
		if got := meanResidualLife(e, age); !almostEqual(got, 100, 1e-8) {
			t.Errorf("exp MRL at age %g = %g, want 100", age, got)
		}
	}
	// Heavy-tailed Weibull: MRL grows with age.
	w := NewWeibull(0.43, 3409)
	prev := meanResidualLife(w, 0)
	for _, age := range []float64{100, 1000, 10000, 100000} {
		cur := meanResidualLife(w, age)
		if cur <= prev {
			t.Errorf("weibull(0.43) MRL not increasing: MRL(%g)=%g <= %g", age, cur, prev)
		}
		prev = cur
	}
	// Light-tailed Weibull: MRL shrinks with age.
	w2 := NewWeibull(2, 100)
	if meanResidualLife(w2, 500) >= meanResidualLife(w2, 10) {
		t.Error("weibull(2) MRL should decrease with age")
	}
}

func TestHazardShapes(t *testing.T) {
	// Exponential hazard is constant λ.
	e := NewExponential(0.25)
	for _, x := range []float64{0.1, 1, 10} {
		if got := hazard(e, x); !almostEqual(got, 0.25, 1e-10) {
			t.Errorf("exp hazard at %g = %g", x, got)
		}
	}
	// Weibull shape<1 hazard decreases.
	w := NewWeibull(0.5, 100)
	if hazard(w, 100) >= hazard(w, 1) {
		t.Error("weibull(0.5) hazard should decrease")
	}
	// Weibull shape>1 hazard increases.
	w2 := NewWeibull(3, 100)
	if hazard(w2, 100) <= hazard(w2, 1) {
		t.Error("weibull(3) hazard should increase")
	}
}
