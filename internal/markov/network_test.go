package markov

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
)

// monteCarloImages estimates the images-per-commit by simulating the
// chain's semantics directly: the initial attempt works T then
// checkpoints C under the conditional law; each retry leg spans
// L+R+T starting with a recovery of R under the unconditional law.
func monteCarloImages(m Model, T, age float64, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	C, R := m.Costs.C, m.Costs.R
	span2 := m.Costs.L + R + T
	total := 0.0
	for range n {
		life := remainingLife(m.Avail, age, rng)
		if life >= T+C {
			total += 1 // committed checkpoint
			continue
		}
		if life > T {
			total += (life - T) / C // partial checkpoint
		}
		for {
			life = m.Avail.Rand(rng)
			if life >= R {
				total += 1 // full recovery
			} else {
				total += life / R // partial recovery
			}
			if life >= span2 {
				total += 1 // the committing checkpoint of the last leg
				break
			}
		}
	}
	return total / float64(n)
}

func TestExpectedImagesMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo validation skipped in -short mode")
	}
	// Note the chain's retry leg has no checkpoint phase, so the MC
	// counts the committing image once per success — matching the
	// analytic "exactly one full image per commit".
	for _, m := range testModels(t) {
		for _, tc := range []struct{ T, age float64 }{
			{500, 0}, {1500, 700}, {4000, 5000},
		} {
			want := m.ExpectedImagesPerCommit(tc.T, tc.age)
			got := monteCarloImages(m, tc.T, tc.age, 300000, 7)
			if !almostEqual(got, want, 0.03) {
				t.Errorf("%s T=%g age=%g: analytic %g, Monte Carlo %g",
					m.Avail.Name(), tc.T, tc.age, want, got)
			}
		}
	}
}

func TestExpectedImagesBasics(t *testing.T) {
	for _, m := range testModels(t) {
		for _, T := range []float64{100, 1000, 5000} {
			img := m.ExpectedImagesPerCommit(T, 300)
			if img < 1 {
				t.Errorf("%s: images per commit %g < 1", m.Avail.Name(), img)
			}
		}
		if !math.IsInf(m.ExpectedImagesPerCommit(0, 0), 1) {
			t.Errorf("%s: T=0 should be infeasible", m.Avail.Name())
		}
	}
}

func TestBandwidthRateDecreasesWithT(t *testing.T) {
	// Longer intervals commit more work per image: the rate should
	// fall as T grows (until failures dominate).
	m := Model{Avail: dist.NewExponential(1.0 / 9000), Costs: mustCosts(t, 100, 100, 100)}
	r1 := m.ExpectedBandwidthRate(300, 0)
	r2 := m.ExpectedBandwidthRate(1200, 0)
	r3 := m.ExpectedBandwidthRate(4000, 0)
	if !(r1 > r2 && r2 > r3) {
		t.Errorf("bandwidth rate not decreasing in T: %g, %g, %g", r1, r2, r3)
	}
}

func TestAnalyticBandwidthReproducesTable3Ordering(t *testing.T) {
	// The paper's headline, analytically: on a heavy-tailed machine,
	// the exponential model (shorter T_opt) moves more images per
	// second than hyperexponential or Weibull fits of the same data.
	rng := rand.New(rand.NewSource(77))
	truth := dist.NewWeibull(0.43, 3409)
	train := make([]float64, 500)
	for i := range train {
		train[i] = truth.Rand(rng)
	}
	costs := mustCosts(t, 500, 500, 500)
	rate := func(model fit.Model) float64 {
		d, err := fit.Fit(model, train)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Avail: d, Costs: costs}
		// Steady-state-ish: evaluate at the fresh-resource optimum.
		T, _, err := m.Topt(costs.R, OptimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m.ExpectedBandwidthRate(T, costs.R)
	}
	exp := rate(fit.ModelExponential)
	weib := rate(fit.ModelWeibull)
	hyp2 := rate(fit.ModelHyperexp2)
	if !(exp > weib) {
		t.Errorf("analytic rate: exponential %g not above weibull %g", exp, weib)
	}
	if !(exp > hyp2) {
		t.Errorf("analytic rate: exponential %g not above hyperexp2 %g", exp, hyp2)
	}
}
