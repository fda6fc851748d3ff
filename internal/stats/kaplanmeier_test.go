package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKaplanMeierTextbookExample(t *testing.T) {
	// Classic worked example: times 6,6,6,7,10 with censoring at
	// 6(one of three),9,10... use a small hand-checkable set:
	// events at 2 (n=5 at risk) and 5 (n=3 at risk); censored at 3, 6, 6.
	times := []float64{2, 3, 5, 6, 6}
	cens := []bool{false, true, false, true, true}
	km, err := NewKaplanMeier(times, cens)
	if err != nil {
		t.Fatal(err)
	}
	// S(2) = 1 - 1/5 = 0.8. At t=5, at-risk = 3 (after event at 2 and
	// censor at 3): S(5) = 0.8 * (1 - 1/3) = 0.5333...
	if got := km.Survival(2); !almostEqual(got, 0.8, 1e-12) {
		t.Errorf("S(2) = %g, want 0.8", got)
	}
	if got := km.Survival(5); !almostEqual(got, 0.8*2.0/3, 1e-12) {
		t.Errorf("S(5) = %g, want %g", got, 0.8*2.0/3)
	}
	if got := km.Survival(1); got != 1 {
		t.Errorf("S(1) = %g, want 1", got)
	}
	if got := km.Survival(100); !almostEqual(got, 0.8*2.0/3, 1e-12) {
		t.Errorf("S(100) = %g (curve is flat beyond last event)", got)
	}
	if km.N() != 5 || len(km.points) != 2 {
		t.Errorf("N=%d points=%d", km.N(), len(km.points))
	}
}

func TestKaplanMeierNoCensoringMatchesEmpirical(t *testing.T) {
	times := []float64{10, 20, 30, 40}
	cens := make([]bool, 4)
	km, err := NewKaplanMeier(times, cens)
	if err != nil {
		t.Fatal(err)
	}
	// Without censoring KM is the empirical survival function.
	cases := []struct{ t, want float64 }{
		{5, 1}, {10, 0.75}, {25, 0.5}, {40, 0}, {50, 0},
	}
	for _, c := range cases {
		if got := km.Survival(c.t); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("S(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	// Median convention: inf{t : S(t) <= 0.5}; S(20) = 0.5 exactly.
	if got := km.Median(); got != 20 {
		t.Errorf("median = %g, want 20", got)
	}
}

func TestKaplanMeierRecoversTrueSurvival(t *testing.T) {
	// Exponential lifetimes censored at a fixed horizon: the KM curve
	// must track the true survival inside the horizon.
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	const mean = 1000.0
	const horizon = 1500.0
	times := make([]float64, n)
	cens := make([]bool, n)
	for i := range times {
		v := rng.ExpFloat64() * mean
		if v > horizon {
			times[i], cens[i] = horizon, true
		} else {
			times[i] = v
		}
	}
	km, err := NewKaplanMeier(times, cens)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{100, 500, 1000, 1400} {
		want := math.Exp(-x / mean)
		if got := km.Survival(x); math.Abs(got-want) > 0.02 {
			t.Errorf("S(%g) = %g, true %g", x, got, want)
		}
	}
	med := km.Median()
	if math.Abs(med-mean*math.Ln2) > 40 {
		t.Errorf("median = %g, true %g", med, mean*math.Ln2)
	}
}

func TestKaplanMeierMedianUndefinedUnderHeavyCensoring(t *testing.T) {
	// One early event, everything else censored: the curve never
	// reaches 0.5.
	times := []float64{1, 10, 10, 10, 10, 10}
	cens := []bool{false, true, true, true, true, true}
	km, err := NewKaplanMeier(times, cens)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(km.Median()) {
		t.Errorf("median = %g, want NaN", km.Median())
	}
}

func TestKaplanMeierErrors(t *testing.T) {
	if _, err := NewKaplanMeier(nil, nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := NewKaplanMeier([]float64{1}, []bool{true, false}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := NewKaplanMeier([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Error("all-censored should error")
	}
	if _, err := NewKaplanMeier([]float64{-1}, []bool{false}); err == nil {
		t.Error("negative time should error")
	}
	if _, err := NewKaplanMeier([]float64{math.NaN()}, []bool{false}); err == nil {
		t.Error("NaN time should error")
	}
}
