package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
)

func costs(t *testing.T, c float64) markov.Costs {
	t.Helper()
	cs, err := markov.NewCosts(c, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func history(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := dist.NewWeibull(0.43, 3409)
	out := make([]float64, n)
	for i := range out {
		out[i] = w.Rand(rng)
	}
	return out
}

func TestFitSchedulerAllModels(t *testing.T) {
	hist := history(25, 1)
	for _, m := range fit.Models {
		s, err := FitScheduler(m, hist)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !s.Fitted || s.Model != m {
			t.Errorf("%v: metadata wrong: %+v", m, s)
		}
		T, err := s.Topt(0, costs(t, 100))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if T <= 0 {
			t.Errorf("%v: T_opt = %g", m, T)
		}
		eff, err := s.ExpectedEfficiency(0, costs(t, 100))
		if err != nil {
			t.Fatal(err)
		}
		if eff <= 0 || eff >= 1 {
			t.Errorf("%v: efficiency = %g", m, eff)
		}
	}
}

func TestExpectedNetworkRate(t *testing.T) {
	// The paper's headline through the public API: the exponential
	// model's optimal schedule moves more MB/s than the heavy-tailed
	// fits of the same history.
	hist := history(500, 2)
	rate := func(m fit.Model) float64 {
		s, err := FitScheduler(m, hist)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.ExpectedNetworkRate(500, costs(t, 500), 500)
		if err != nil {
			t.Fatal(err)
		}
		if r <= 0 {
			t.Fatalf("%v: rate %g", m, r)
		}
		return r
	}
	if exp, hyp := rate(fit.ModelExponential), rate(fit.ModelHyperexp2); exp <= hyp {
		t.Errorf("exponential rate %g not above hyperexp2 %g", exp, hyp)
	}
}

func TestFitSchedulerErrors(t *testing.T) {
	if _, err := FitScheduler(fit.ModelWeibull, nil); err == nil {
		t.Error("empty history should error")
	}
	if _, err := NewScheduler(nil); err == nil {
		t.Error("nil distribution should error")
	}
}

func TestSchedulerScheduleDelegation(t *testing.T) {
	s, err := NewScheduler(dist.NewWeibull(0.43, 3409))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := s.Schedule(500, costs(t, 100), markov.ScheduleOptions{Horizon: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Len() == 0 || sched.Ages[0] != 500 {
		t.Errorf("schedule = %v", sched)
	}
}

func TestDistFromParamsRoundTrip(t *testing.T) {
	cases := []dist.Distribution{
		dist.NewExponential(0.001),
		dist.NewWeibull(0.43, 3409),
		dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{0.01, 0.0001}),
		dist.NewHyperexponential([]float64{0.5, 0.3, 0.2}, []float64{0.1, 0.01, 0.001}),
	}
	for _, d := range cases {
		m, params, err := ParamsOf(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		back, err := DistFromParams(m, params)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		for _, x := range []float64{1, 100, 10000} {
			if math.Abs(back.CDF(x)-d.CDF(x)) > 1e-12 {
				t.Errorf("%s: CDF mismatch after round trip at %g", d.Name(), x)
			}
		}
	}
}

func TestDistFromParamsErrors(t *testing.T) {
	cases := []struct {
		name   string
		model  fit.Model
		params []float64
	}{
		{"exp wrong arity", fit.ModelExponential, []float64{1, 2}},
		{"exp bad rate", fit.ModelExponential, []float64{-1}},
		{"weibull wrong arity", fit.ModelWeibull, []float64{1}},
		{"weibull bad shape", fit.ModelWeibull, []float64{0, 5}},
		{"hyper2 wrong arity", fit.ModelHyperexp2, []float64{1, 2, 3}},
		{"hyper3 wrong arity", fit.ModelHyperexp3, []float64{1, 2, 3, 4}},
		{"hyper2 bad rate", fit.ModelHyperexp2, []float64{0.5, 0.5, 1, -1}},
		{"unknown model", fit.Model(99), []float64{1}},
	}
	for _, c := range cases {
		if _, err := DistFromParams(c.model, c.params); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParamsOfUnsupported(t *testing.T) {
	if _, _, err := ParamsOf(dist.NewLogNormal(6.5, 1.2)); err == nil {
		t.Error("lognormal should be unsupported on the wire")
	}
	h4 := dist.NewHyperexponential([]float64{0.25, 0.25, 0.25, 0.25}, []float64{1, 2, 3, 4})
	if _, _, err := ParamsOf(h4); err == nil {
		t.Error("4-phase should be unsupported on the wire")
	}
}

func TestRoutineMatchesScheduler(t *testing.T) {
	params := []float64{0.43, 3409}
	T, eff, err := Routine(fit.ModelWeibull, params, 700, 110, 110)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(dist.NewWeibull(0.43, 3409))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := markov.NewCosts(110, 110, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantT, err := s.Topt(700, cs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(T-wantT)/wantT > 1e-6 {
		t.Errorf("Routine T_opt = %g, Scheduler = %g", T, wantT)
	}
	if eff <= 0 || eff >= 1 {
		t.Errorf("Routine efficiency = %g", eff)
	}
}

func TestRoutineMemorylessIgnoresTelapsed(t *testing.T) {
	params := []float64{1.0 / 9000}
	t1, _, err := Routine(fit.ModelExponential, params, 0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := Routine(fit.ModelExponential, params, 99999, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1-t2)/t1 > 1e-3 {
		t.Errorf("exponential T_opt depends on T_elapsed: %g vs %g", t1, t2)
	}
}

func TestRoutineErrors(t *testing.T) {
	if _, _, err := Routine(fit.ModelExponential, []float64{1, 2}, 0, 100, 100); err == nil {
		t.Error("bad params should error")
	}
	if _, _, err := Routine(fit.ModelExponential, []float64{1}, 0, -5, 100); err == nil {
		t.Error("negative cost should error")
	}
}
