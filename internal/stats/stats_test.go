package stats

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

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Sum of squared deviations = 32, n-1 = 7.
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if got := StdErr(xs); !almostEqual(got, math.Sqrt(32.0/7/8), 1e-12) {
		t.Errorf("StdErr = %g", got)
	}
}

func TestMeanEmptyAndVarianceSingle(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one sample should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %g", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	// Median must not mutate its input.
	xs := []float64{5, 1, 3}
	Median(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// t=0 is the median for any df.
	for _, df := range []float64{1, 5, 30, 600} {
		if got := StudentTCDF(0, df); got != 0.5 {
			t.Errorf("CDF(0, df=%g) = %g", df, got)
		}
	}
	// df=1 is Cauchy: CDF(1) = 3/4.
	if got := StudentTCDF(1, 1); !almostEqual(got, 0.75, 1e-10) {
		t.Errorf("Cauchy CDF(1) = %g, want 0.75", got)
	}
	// Large df approaches the normal: CDF(1.959964, 1e6) ≈ 0.975.
	if got := StudentTCDF(1.959964, 1e6); !almostEqual(got, 0.975, 1e-4) {
		t.Errorf("t CDF → normal: %g", got)
	}
	// Symmetry.
	if got := StudentTCDF(-2, 7) + StudentTCDF(2, 7); !almostEqual(got, 1, 1e-12) {
		t.Errorf("symmetry violated: %g", got)
	}
}

func TestStudentTQuantileTableValues(t *testing.T) {
	// Standard two-sided 95% critical values (t_{0.975, df}).
	cases := []struct{ df, want float64 }{
		{1, 12.706}, {2, 4.303}, {5, 2.571}, {10, 2.228},
		{30, 2.042}, {100, 1.984}, {600, 1.964},
	}
	for _, c := range cases {
		got := StudentTQuantile(0.975, c.df)
		if !almostEqual(got, c.want, 5e-4) {
			t.Errorf("t_{0.975, %g} = %g, want %g", c.df, got, c.want)
		}
	}
}

func TestStudentTQuantileRoundTrip(t *testing.T) {
	f := func(p, df float64) bool {
		p = 0.01 + 0.98*math.Abs(math.Mod(p, 1))
		df = 1 + math.Abs(math.Mod(df, 200))
		q := StudentTQuantile(p, df)
		return almostEqual(StudentTCDF(q, df), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStudentTQuantileEdge(t *testing.T) {
	if !math.IsNaN(StudentTQuantile(0, 5)) || !math.IsNaN(StudentTQuantile(1, 5)) {
		t.Error("quantile at p∈{0,1} should be NaN")
	}
	if got := StudentTQuantile(0.5, 5); got != 0 {
		t.Errorf("median quantile = %g", got)
	}
	if got := StudentTQuantile(0.025, 10); !almostEqual(got, -2.228, 5e-4) {
		t.Errorf("lower-tail quantile = %g", got)
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ci, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Mean != 3 {
		t.Errorf("CI mean = %g", ci.Mean)
	}
	// s = sqrt(2.5), se = sqrt(0.5), t_{0.975,4} = 2.776.
	want := 2.776 * math.Sqrt(0.5)
	if !almostEqual(ci.HalfWidth, want, 1e-3) {
		t.Errorf("CI half width = %g, want %g", ci.HalfWidth, want)
	}
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Error("MeanCI of one sample should error")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// Empirical coverage of the 95% CI on normal-ish data should be
	// close to 95%.
	rng := rand.New(rand.NewSource(11))
	const trials = 2000
	covered := 0
	for range trials {
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = 10 + rng.NormFloat64()*3
		}
		ci, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ci.Mean-10) <= ci.HalfWidth {
			covered++
		}
	}
	cov := float64(covered) / trials
	if cov < 0.93 || cov > 0.97 {
		t.Errorf("CI coverage = %g, want ≈0.95", cov)
	}
}

func TestPairedTTestDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := rng.NormFloat64()
		a[i] = base + 1 // constant shift of 1 with shared noise
		b[i] = base + rng.NormFloat64()*0.1
	}
	r, err := PairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 1e-6 {
		t.Errorf("paired t-test missed an obvious shift: p = %g", r.P)
	}
	if r.MeanDelta < 0.5 {
		t.Errorf("mean delta = %g", r.MeanDelta)
	}
	if !SignificantlyGreater(a, b, 0.05) {
		t.Error("SignificantlyGreater(a, b) should hold")
	}
	if SignificantlyGreater(b, a, 0.05) {
		t.Error("SignificantlyGreater(b, a) should not hold")
	}
}

func TestPairedTTestNull(t *testing.T) {
	// Under H0 the test should rarely reject; check the p-value is
	// approximately uniform by counting rejections at .05 over many
	// repetitions.
	rng := rand.New(rand.NewSource(9))
	const trials = 2000
	rejects := 0
	for range trials {
		a := make([]float64, 15)
		b := make([]float64, 15)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		r, err := PairedTTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if r.P < 0.05 {
			rejects++
		}
	}
	rate := float64(rejects) / trials
	if rate > 0.08 || rate < 0.02 {
		t.Errorf("null rejection rate = %g, want ≈0.05", rate)
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	// Identical samples: p = 1.
	a := []float64{1, 2, 3}
	r, err := PairedTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 1 || r.MeanDelta != 0 {
		t.Errorf("identical samples: p=%g delta=%g", r.P, r.MeanDelta)
	}
	// Constant nonzero shift with zero variance: p = 0.
	b := []float64{2, 3, 4}
	r, err = PairedTTest(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 0 || r.MeanDelta != 1 {
		t.Errorf("constant shift: p=%g delta=%g", r.P, r.MeanDelta)
	}
	// Errors.
	if _, err := PairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Error("n=1 should error")
	}
}

func TestKSCriticalValue(t *testing.T) {
	// Classic alpha=.05 approximation: 1.358/sqrt(n).
	got := KSCriticalValue(100, 0.05)
	if !almostEqual(got, 1.3581/10, 1e-3) {
		t.Errorf("KS critical value = %g, want ≈0.1358", got)
	}
	if !math.IsNaN(KSCriticalValue(0, 0.05)) {
		t.Error("n=0 should give NaN")
	}
}
