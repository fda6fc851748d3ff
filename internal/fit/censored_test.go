package fit

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// censorAt applies Type-I (fixed-time) right censoring at limit.
func censorAt(values []float64, limit float64) ([]float64, []bool) {
	xs := append([]float64(nil), values...)
	cens := make([]bool, len(values))
	for i, v := range values {
		if v > limit {
			xs[i], cens[i] = limit, true
		}
	}
	return xs, cens
}

func TestExponentialCensoredRecoversRate(t *testing.T) {
	truth := dist.NewExponential(1.0 / 5000)
	// Censor at the ~63rd percentile: a third of the data is censored.
	xs, cens := censorAt(sample(truth, 40000, 31), 5000)
	got, err := exponential(xs, cens)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Lambda, truth.Lambda, 0.03) {
		t.Errorf("censored λ̂ = %g, want %g", got.Lambda, truth.Lambda)
	}
	// The naive fit that treats censored values as deaths is biased
	// high (it thinks lifetimes are shorter than they are).
	naive, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Lambda <= got.Lambda {
		t.Errorf("naive λ %g should exceed censoring-aware λ %g", naive.Lambda, got.Lambda)
	}
}

func TestExponentialCensoredMatchesUncensoredOnExactData(t *testing.T) {
	xs := []float64{100, 300, 800}
	a, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exponential(xs, make([]bool, len(xs)))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a.Lambda, b.Lambda, 1e-12) {
		t.Errorf("censored path diverges on exact data: %g vs %g", a.Lambda, b.Lambda)
	}
}

func TestWeibullCensoredRecoversParameters(t *testing.T) {
	truth := dist.NewWeibull(0.43, 3409)
	// Censor at a modest horizon: heavy tails put much mass beyond it.
	xs, cens := censorAt(sample(truth, 40000, 33), 20000)
	got, err := weibull(xs, cens)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Shape, truth.Shape, 0.06) {
		t.Errorf("censored shape = %g, want %g", got.Shape, truth.Shape)
	}
	if !almostEqual(got.Scale, truth.Scale, 0.08) {
		t.Errorf("censored scale = %g, want %g", got.Scale, truth.Scale)
	}
	// Naive fit underestimates the scale badly on the same data.
	naive, err := Weibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Scale >= got.Scale {
		t.Errorf("naive scale %g should be below censoring-aware %g", naive.Scale, got.Scale)
	}
}

func TestWeibullCensoredMatchesUncensoredOnExactData(t *testing.T) {
	truth := dist.NewWeibull(0.8, 1000)
	raw := sample(truth, 2000, 35)
	a, err := Weibull(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := weibull(raw, make([]bool, len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a.Shape, b.Shape, 1e-9) || !almostEqual(a.Scale, b.Scale, 1e-9) {
		t.Errorf("censored path diverges on exact data: %v vs %v", a, b)
	}
}

func TestHyperexpCensoredMonotoneLikelihood(t *testing.T) {
	truth := dist.NewHyperexponential([]float64{0.7, 0.3}, []float64{0.01, 0.0005})
	xs, cens := censorAt(sample(truth, 2000, 37), 2500)
	prev := math.Inf(-1)
	for iters := 1; iters <= 50; iters += 7 {
		r, err := hyperexp(xs, cens, 2, EMOptions{MaxIter: iters, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		if r.LogLik < prev-1e-6 {
			t.Errorf("censored EM log-likelihood decreased at %d iters", iters)
		}
		prev = r.LogLik
	}
}

func TestHyperexpCensoredRecoversSlowPhase(t *testing.T) {
	truth := dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{0.02, 0.0002})
	xs, cens := censorAt(sample(truth, 60000, 39), 6000) // censors most slow-phase lifetimes
	r, err := hyperexp(xs, cens, 2, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Dist
	slow := 0
	if h.Lambda[1] < h.Lambda[0] {
		slow = 1
	}
	// Censoring-aware EM should still see the slow phase's scale
	// (mean ≈ 5000 s), where the naive EM collapses it toward the
	// censoring horizon.
	if mean := 1 / h.Lambda[slow]; mean < 3200 {
		t.Errorf("censored EM slow-phase mean = %g, want ≳ 3200", mean)
	}
	naive, err := Hyperexp(xs, 2, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nslow := 0
	if naive.Dist.Lambda[1] < naive.Dist.Lambda[0] {
		nslow = 1
	}
	if 1/naive.Dist.Lambda[nslow] >= 1/h.Lambda[slow] {
		t.Errorf("naive slow mean %g should underestimate censoring-aware %g",
			1/naive.Dist.Lambda[nslow], 1/h.Lambda[slow])
	}
}

func TestFitCensoredDispatch(t *testing.T) {
	truth := dist.NewWeibull(0.6, 2000)
	xs, cens := censorAt(sample(truth, 500, 41), 4000)
	for _, m := range Models {
		d, err := FitCensored(m, xs, cens)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if d.Mean() <= 0 {
			t.Errorf("%v: bad mean", m)
		}
	}
	if _, err := FitCensored(Model(77), xs, cens); err == nil {
		t.Error("unknown model should error")
	}
}

func TestCensoredErrors(t *testing.T) {
	if _, err := exponential(nil, nil); err == nil {
		t.Error("empty should error")
	}
	for _, m := range Models {
		if _, err := FitCensored(m, []float64{5}, []bool{true}); err == nil {
			t.Errorf("%v: all-censored should error", m)
		}
		if _, err := FitCensored(m, []float64{5, 6}, []bool{false}); err == nil {
			t.Errorf("%v: one flag for two observations should error", m)
		}
	}
	if _, err := hyperexp([]float64{1, 2}, nil, 0, EMOptions{}); err == nil {
		t.Error("k=0 should error")
	}
	// Degenerate identical sample.
	w, err := weibull([]float64{9, 9, 9}, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if w.Scale != 9 {
		t.Errorf("degenerate censored fit = %v", w)
	}
}

func TestCensoredLogLikelihood(t *testing.T) {
	d := dist.NewExponential(0.001)
	got := CensoredLogLikelihood(d, []float64{1000, 2000}, []bool{false, true})
	want := math.Log(d.PDF(1000)) + math.Log(d.Survival(2000))
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("censored ll = %g, want %g", got, want)
	}
	if !math.IsInf(CensoredLogLikelihood(d, nil, nil), -1) {
		t.Error("empty data ll should be -Inf")
	}
	// The censoring-aware fit maximizes this likelihood better than a
	// mis-fit.
	truth := dist.NewExponential(1.0 / 800)
	xs, cens := censorAt(sample(truth, 5000, 43), 800)
	fitted, err := exponential(xs, cens)
	if err != nil {
		t.Fatal(err)
	}
	if CensoredLogLikelihood(fitted, xs, cens) < CensoredLogLikelihood(dist.NewExponential(1.0/300), xs, cens) {
		t.Error("fitted model should beat an arbitrary one in censored likelihood")
	}
}

// paramBits returns the bit patterns of a fitted law's parameters and
// reports any parameter that is not finite and positive.
func paramBits(t *testing.T, d dist.Distribution) []uint64 {
	t.Helper()
	var ps []float64
	switch v := d.(type) {
	case dist.Exponential:
		ps = []float64{v.Lambda}
	case dist.Weibull:
		ps = []float64{v.Shape, v.Scale}
	case dist.Hyperexponential:
		ps = append(append(ps, v.P...), v.Lambda...)
	default:
		t.Fatalf("unexpected law %T", d)
	}
	bits := make([]uint64, len(ps))
	for i, p := range ps {
		if !(p > 0) || math.IsInf(p, 1) {
			t.Errorf("%v: parameter %g is not finite and positive", d, p)
		}
		bits[i] = math.Float64bits(p)
	}
	return bits
}

// sameFit reports two fits of one model that differ: an error on one
// side only, or any bit of any parameter.
func sameFit(t *testing.T, what string, want dist.Distribution, wantErr error, got dist.Distribution, err error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Errorf("%s: error %v, want %v", what, err, wantErr)
		return
	}
	if err == nil && !slices.Equal(paramBits(t, got), paramBits(t, want)) {
		t.Errorf("%s: %v, want %v bitwise", what, got, want)
	}
}

// propertySample draws n durations salted with what the estimators must
// clean or survive: ties, values below DurationFloor, NaN and ±Inf.
func propertySample(rng *rand.Rand, n int) []float64 {
	w := dist.NewWeibull(0.5, 3000)
	xs := make([]float64, n)
	for i := range xs {
		switch r := rng.Float64(); {
		case r < 0.05:
			xs[i] = rng.Float64() * DurationFloor
		case r < 0.08:
			xs[i] = math.NaN()
		case r < 0.10:
			xs[i] = math.Inf(1 - 2*rng.Intn(2))
		case r < 0.25 && i > 0:
			xs[i] = xs[rng.Intn(i)]
		default:
			xs[i] = math.Round(w.Rand(rng))
		}
	}
	return xs
}

// TestFitCensoredReducesToFit is the fixed point of censoring-aware
// estimation: with nothing censored — flags nil or all false — every
// model's FitCensored is bitwise Fit, at n < k, with ties, sub-floor
// values and non-finite entries.
func TestFitCensoredReducesToFit(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 2, 3, 7, 25, 120} {
			data := propertySample(rng, n)
			allFalse := make([]bool, n)
			for _, m := range Models {
				what := fmt.Sprintf("seed %d n %d %v", seed, n, m)
				want, wantErr := Fit(m, data)
				got, err := FitCensored(m, data, nil)
				sameFit(t, what+" nil flags", want, wantErr, got, err)
				got, err = FitCensored(m, data, allFalse)
				sameFit(t, what+" all-false flags", want, wantErr, got, err)
			}
		}
	}
}

// FuzzFit holds FitCensored to its contract on arbitrary input: for
// every model, an error or a law with finite positive parameters, never
// a panic, and bitwise Fit when no flag is set. Each observation is
// nine bytes: a little-endian float64 and a flag byte whose low bit
// censors it.
func FuzzFit(f *testing.F) {
	encode := func(xs []float64, cens ...bool) []byte {
		var b []byte
		for i, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			flag := byte(0)
			if i < len(cens) && cens[i] {
				flag = 1
			}
			b = append(b, flag)
		}
		return b
	}
	f.Add(encode([]float64{1, 1e308, 1e308}))
	f.Add(encode([]float64{1e300, 1e300, 2e300}))
	f.Add(encode([]float64{900, 1e308, 40, 1e308}, false, true, false, true))
	f.Add(encode([]float64{0, math.NaN(), math.Inf(-1), 3, 3}, false, false, true))
	f.Fuzz(func(t *testing.T, b []byte) {
		n := min(len(b)/9, 64) // bounds the EM's cost per input
		xs := make([]float64, n)
		cens := make([]bool, n)
		exact := true
		for i := range n {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[9*i:]))
			cens[i] = b[9*i+8]&1 == 1
			exact = exact && !cens[i]
		}
		for _, m := range Models {
			d, err := FitCensored(m, xs, cens)
			if exact {
				want, wantErr := Fit(m, xs)
				sameFit(t, m.String(), want, wantErr, d, err)
			} else if err == nil {
				paramBits(t, d)
			}
		}
	})
}
