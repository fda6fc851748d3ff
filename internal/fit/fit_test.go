package fit

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	return diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func sample(d dist.Distribution, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Rand(rng)
	}
	return xs
}

func TestExponentialMLERecoversRate(t *testing.T) {
	truth := dist.NewExponential(1.0 / 5000)
	xs := sample(truth, 50000, 1)
	got, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Lambda, truth.Lambda, 0.02) {
		t.Errorf("λ̂ = %g, want %g", got.Lambda, truth.Lambda)
	}
}

func TestExponentialMLEEqualsInverseMean(t *testing.T) {
	xs := []float64{100, 200, 300}
	got, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Lambda, 1.0/200, 1e-12) {
		t.Errorf("λ̂ = %g, want 1/200", got.Lambda)
	}
}

func TestExponentialErrors(t *testing.T) {
	if _, err := Exponential(nil); err == nil {
		t.Error("empty data should error")
	}
	if _, err := Exponential([]float64{math.NaN(), math.Inf(1)}); err == nil {
		t.Error("all-invalid data should error")
	}
}

func TestCleanClampsToFloor(t *testing.T) {
	got, cens, events, err := clean([]float64{0, 0.5, 100, math.NaN()}, []bool{false, true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != DurationFloor || got[1] != DurationFloor || got[2] != 100 {
		t.Errorf("clean = %v", got)
	}
	if !slices.Equal(cens, []bool{false, true, false}) || events != 2 {
		t.Errorf("clean flags = %v with %d events, want [false true false] with 2", cens, events)
	}
}

// TestFitRejectsNonFiniteEstimates: a finite history whose sums
// overflow float64 fails its fit with an error; it must not panic in a
// dist constructor or return an infinite parameter.
func TestFitRejectsNonFiniteEstimates(t *testing.T) {
	for _, tc := range []struct {
		m    Model
		data []float64
	}{
		{ModelExponential, []float64{1, 1e308, 1e308}}, // Σx = +Inf, so λ̂ = 0
		{ModelWeibull, []float64{1e300, 1e300, 2e300}}, // β̂ = +Inf
	} {
		if d, err := Fit(tc.m, tc.data); err == nil {
			t.Errorf("Fit(%v, %v) = %v, want an error", tc.m, tc.data, d)
		}
	}
}

func TestWeibullMLERecoversParameters(t *testing.T) {
	cases := []dist.Weibull{
		dist.NewWeibull(0.43, 3409), // the paper's machine
		dist.NewWeibull(1.0, 500),
		dist.NewWeibull(2.2, 120),
	}
	for _, truth := range cases {
		xs := sample(truth, 40000, 7)
		got, err := Weibull(xs)
		if err != nil {
			t.Fatalf("%v: %v", truth, err)
		}
		if !almostEqual(got.Shape, truth.Shape, 0.05) {
			t.Errorf("%v: shape = %g", truth, got.Shape)
		}
		if !almostEqual(got.Scale, truth.Scale, 0.05) {
			t.Errorf("%v: scale = %g", truth, got.Scale)
		}
	}
}

func TestWeibullMLESmallSample(t *testing.T) {
	// The paper fits on just 25 observations; the estimator must stay
	// well-behaved there even if noisy.
	truth := dist.NewWeibull(0.43, 3409)
	for seed := int64(0); seed < 20; seed++ {
		xs := sample(truth, 25, seed)
		got, err := Weibull(xs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Shape <= 0 || got.Shape > 5 || got.Scale <= 0 {
			t.Errorf("seed %d: implausible fit %v", seed, got)
		}
	}
}

func TestWeibullMLEScoreZeroAtSolution(t *testing.T) {
	// The fitted parameters must satisfy the likelihood equations:
	// β̂^α̂ = Σx^α̂/n and the profile score is 0.
	truth := dist.NewWeibull(0.8, 1000)
	raw := sample(truth, 5000, 3)
	got, err := Weibull(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Compare on the same cleaned data the estimator saw.
	xs, _, _, err := clean(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(xs))
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x, got.Shape)
	}
	if !almostEqual(math.Pow(got.Scale, got.Shape), sum/n, 1e-6) {
		t.Errorf("scale equation violated")
	}
}

func TestWeibullDegenerateSample(t *testing.T) {
	got, err := Weibull([]float64{100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got.Scale != 100 || got.Shape < 10 {
		t.Errorf("degenerate fit = %v, want sharp peak at 100", got)
	}
}

// TestKSDistance checks KS against the supremum written out by hand:
// at each distinct sample value the empirical CDF jumps from its left
// to its right limit, and the distance is largest at one of them.
func TestKSDistance(t *testing.T) {
	data := []float64{3, 1, 2, 2, 5}
	model := dist.NewExponential(1 / 2.6)
	jumps := []struct{ x, left, right float64 }{
		{1, 0, 0.2}, {2, 0.2, 0.6}, {3, 0.6, 0.8}, {5, 0.8, 1},
	}
	want := 0.0
	for _, j := range jumps {
		f := model.CDF(j.x)
		want = math.Max(want, math.Max(f-j.left, j.right-f))
	}
	if got := KS(model, data); !almostEqual(got, want, 1e-15) {
		t.Errorf("KS = %g, want %g", got, want)
	}
	if !slices.Equal(data, []float64{3, 1, 2, 2, 5}) {
		t.Errorf("KS reordered its input: %v", data)
	}
	// The true model on a large sample is close (a scale far above
	// DurationFloor, so clean's floor moves almost no mass).
	w := dist.NewWeibull(0.8, 1e4)
	if d := KS(w, sample(w, 20000, 1)); d > 0.02 {
		t.Errorf("KS of true model = %g, want < 0.02", d)
	}
	if !math.IsNaN(KS(w, nil)) {
		t.Error("KS of an empty sample should be NaN")
	}
}

func TestWeibullBeatsExponentialOnHeavyTail(t *testing.T) {
	truth := dist.NewWeibull(0.43, 3409)
	xs := sample(truth, 3000, 5)
	w, err := Weibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if LogLikelihood(w, xs) <= LogLikelihood(e, xs) {
		t.Error("Weibull should dominate exponential on heavy-tailed data")
	}
	if KS(w, xs) >= KS(e, xs) {
		t.Error("Weibull KS should beat exponential on heavy-tailed data")
	}
}

func TestHyperexpEMMonotoneLikelihood(t *testing.T) {
	// Re-run EM step by step and assert the log-likelihood never
	// decreases — the defining EM invariant.
	truth := dist.NewHyperexponential([]float64{0.7, 0.3}, []float64{0.01, 0.0005})
	xs := sample(truth, 2000, 11)
	prev := math.Inf(-1)
	for iters := 1; iters <= 60; iters += 7 {
		r, err := Hyperexp(xs, 2, EMOptions{MaxIter: iters, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		if r.LogLik < prev-1e-6 {
			t.Errorf("log-likelihood decreased at %d iters: %g -> %g", iters, prev, r.LogLik)
		}
		prev = r.LogLik
	}
}

func TestHyperexpEMRecoversMixture(t *testing.T) {
	truth := dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{0.02, 0.0002})
	xs := sample(truth, 60000, 13)
	r, err := Hyperexp(xs, 2, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converg {
		t.Error("EM did not converge")
	}
	h := r.Dist
	// Sort phases by rate for comparison.
	fast, slow := 0, 1
	if h.Lambda[fast] < h.Lambda[slow] {
		fast, slow = slow, fast
	}
	if !almostEqual(h.Lambda[fast], 0.02, 0.15) {
		t.Errorf("fast rate = %g, want ≈0.02", h.Lambda[fast])
	}
	if !almostEqual(h.Lambda[slow], 0.0002, 0.15) {
		t.Errorf("slow rate = %g, want ≈0.0002", h.Lambda[slow])
	}
	if !almostEqual(h.P[fast], 0.6, 0.1) {
		t.Errorf("fast weight = %g, want ≈0.6", h.P[fast])
	}
	// The fitted mean must track the sample mean closely (EM for
	// exponential mixtures preserves the first moment at convergence).
	sm := 0.0
	for _, x := range xs {
		sm += x
	}
	sm /= float64(len(xs))
	if !almostEqual(h.Mean(), sm, 0.01) {
		t.Errorf("fitted mean %g, sample mean %g", h.Mean(), sm)
	}
}

func TestHyperexpEMSmallSample(t *testing.T) {
	truth := dist.NewWeibull(0.43, 3409)
	for seed := int64(0); seed < 15; seed++ {
		xs := sample(truth, 25, seed)
		for _, k := range []int{2, 3} {
			r, err := Hyperexp(xs, k, EMOptions{})
			if err != nil {
				t.Fatalf("seed %d k %d: %v", seed, k, err)
			}
			if r.Dist.Mean() <= 0 || math.IsInf(r.Dist.Mean(), 0) {
				t.Errorf("seed %d k %d: bad mean %g", seed, k, r.Dist.Mean())
			}
		}
	}
}

func TestHyperexpFewerPointsThanPhases(t *testing.T) {
	r, err := Hyperexp([]float64{50, 500}, 3, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dist.Phases() > 2 {
		t.Errorf("phases = %d, want <= 2 for 2 observations", r.Dist.Phases())
	}
}

func TestHyperexpErrors(t *testing.T) {
	if _, err := Hyperexp(nil, 2, EMOptions{}); err == nil {
		t.Error("empty data should error")
	}
	if _, err := Hyperexp([]float64{1, 2}, 0, EMOptions{}); err == nil {
		t.Error("k=0 should error")
	}
}

func TestHyperexpOnePhaseMatchesExponentialMLE(t *testing.T) {
	xs := []float64{100, 300, 800, 50, 1200}
	r, err := Hyperexp(xs, 1, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Exponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.Dist.Lambda[0], e.Lambda, 1e-6) {
		t.Errorf("1-phase EM rate %g, MLE %g", r.Dist.Lambda[0], e.Lambda)
	}
}

func TestLogNormalMLERecoversParameters(t *testing.T) {
	truth := dist.NewLogNormal(6.5, 1.1)
	xs := sample(truth, 50000, 61)
	got, err := LogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Mu, 6.5, 0.01) || !almostEqual(got.Sigma, 1.1, 0.02) {
		t.Errorf("fit = %v, want (6.5, 1.1)", got)
	}
}

func TestLogNormalMLEDegenerateAndErrors(t *testing.T) {
	if _, err := LogNormal(nil); err == nil {
		t.Error("empty should error")
	}
	got, err := LogNormal([]float64{42, 42, 42})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Quantile(0.5), 42, 1e-6) {
		t.Errorf("degenerate median = %g", got.Quantile(0.5))
	}
}

func TestLogNormalCompetitiveOnLogNormalData(t *testing.T) {
	truth := dist.NewLogNormal(7, 1.4)
	xs := sample(truth, 3000, 63)
	ln, err := LogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Weibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	if LogLikelihood(ln, xs) <= LogLikelihood(w, xs) {
		t.Error("lognormal should dominate Weibull on lognormal data")
	}
	if KS(ln, xs) >= KS(w, xs) {
		t.Error("lognormal KS should beat Weibull on lognormal data")
	}
}

func TestModelRoundTrip(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Errorf("round trip %v -> %v", m, got)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Error("bogus model should error")
	}
	letters := map[Model]string{
		ModelExponential: "e", ModelWeibull: "w", ModelHyperexp2: "2", ModelHyperexp3: "3",
	}
	for m, want := range letters {
		if got := m.Letter(); got != want {
			t.Errorf("%v letter = %q, want %q", m, got, want)
		}
	}
}

func TestFitDispatch(t *testing.T) {
	truth := dist.NewWeibull(0.6, 2000)
	xs := sample(truth, 500, 17)
	for _, m := range Models {
		d, err := Fit(m, xs)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if d.Mean() <= 0 {
			t.Errorf("%v: non-positive mean", m)
		}
	}
}

func TestAllRanksHeavyTailCorrectly(t *testing.T) {
	truth := dist.NewWeibull(0.43, 3409)
	xs := sample(truth, 4000, 23)
	fits, err := All(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 4 {
		t.Fatalf("expected 4 fits, got %d", len(fits))
	}
	best, err := BestByAIC(fits)
	if err != nil {
		t.Fatal(err)
	}
	if best.Model == ModelExponential {
		t.Error("exponential should never win AIC on strongly heavy-tailed data")
	}
	bestKS, err := BestByKS(fits)
	if err != nil {
		t.Fatal(err)
	}
	if bestKS.Model == ModelExponential {
		t.Error("exponential should never win KS on strongly heavy-tailed data")
	}
	// AIC consistency: AIC = 2k - 2 lnL.
	for _, f := range fits {
		if !almostEqual(f.AIC, 2*float64(NumParams(f.Dist))-2*f.LogLik, 1e-9) {
			t.Errorf("%v: inconsistent AIC", f.Model)
		}
	}
}

func TestBestEmpty(t *testing.T) {
	if _, err := BestByAIC(nil); err == nil {
		t.Error("BestByAIC(nil) should error")
	}
	if _, err := BestByKS(nil); err == nil {
		t.Error("BestByKS(nil) should error")
	}
}

func TestNumParams(t *testing.T) {
	if got := NumParams(dist.NewExponential(1)); got != 1 {
		t.Errorf("exp params = %d", got)
	}
	if got := NumParams(dist.NewWeibull(1, 1)); got != 2 {
		t.Errorf("weibull params = %d", got)
	}
	h3 := dist.NewHyperexponential([]float64{0.3, 0.3, 0.4}, []float64{1, 2, 3})
	if got := NumParams(h3); got != 5 {
		t.Errorf("hyperexp3 params = %d", got)
	}
	mix := dist.NewMixture([]float64{1, 1}, []dist.Distribution{h3, dist.NewWeibull(1, 1)})
	if got := NumParams(mix); got != 0 {
		t.Errorf("mixture (unknown family) params = %d, want 0", got)
	}
}

func TestLogLikelihoodInfForImpossibleData(t *testing.T) {
	// A fitted distribution should never assign zero density to
	// in-range data, but Weibull shape>1 has zero density only at 0,
	// which clean() clamps away; construct impossibility far in the
	// light tail instead, where e^(−(x/β)^α) underflows to zero.
	w := dist.NewWeibull(3, 10)
	if got := LogLikelihood(w, []float64{1e4}); !math.IsInf(got, -1) {
		t.Errorf("expected -Inf log-likelihood, got %g", got)
	}
}
