package forecast

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	return diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestLastValue(t *testing.T) {
	var f LastValue
	if !math.IsNaN(f.Predict()) {
		t.Error("empty forecaster should predict NaN")
	}
	f.Update(3)
	f.Update(7)
	if f.Predict() != 7 {
		t.Errorf("predict = %g", f.Predict())
	}
}

func TestRunningMean(t *testing.T) {
	var f RunningMean
	if !math.IsNaN(f.Predict()) {
		t.Error("empty forecaster should predict NaN")
	}
	for _, x := range []float64{1, 2, 3, 4} {
		f.Update(x)
	}
	if f.Predict() != 2.5 {
		t.Errorf("predict = %g", f.Predict())
	}
}

func TestSlidingMeanWindowing(t *testing.T) {
	f := NewSlidingMean(3)
	for _, x := range []float64{10, 10, 10, 1, 1, 1} {
		f.Update(x)
	}
	if f.Predict() != 1 {
		t.Errorf("sliding mean = %g, want 1 (old values evicted)", f.Predict())
	}
	// Partial window.
	g := NewSlidingMean(5)
	g.Update(4)
	g.Update(6)
	if g.Predict() != 5 {
		t.Errorf("partial window mean = %g", g.Predict())
	}
	// k < 1 clamps.
	if NewSlidingMean(0).K != 1 {
		t.Error("k=0 not clamped")
	}
}

func TestSlidingMedianRobustToSpikes(t *testing.T) {
	f := NewSlidingMedian(5)
	for _, x := range []float64{10, 11, 9, 1000, 10} {
		f.Update(x)
	}
	if f.Predict() != 10 {
		t.Errorf("median = %g, want 10 despite the spike", f.Predict())
	}
	// Even-length partial window averages the central pair.
	g := NewSlidingMedian(6)
	for _, x := range []float64{1, 2, 3, 4} {
		g.Update(x)
	}
	if g.Predict() != 2.5 {
		t.Errorf("even median = %g", g.Predict())
	}
}

func TestExpSmooth(t *testing.T) {
	f := NewExpSmooth(0.5)
	f.Update(10)
	if f.Predict() != 10 {
		t.Errorf("first prediction = %g", f.Predict())
	}
	f.Update(20)
	if f.Predict() != 15 {
		t.Errorf("smoothed = %g, want 15", f.Predict())
	}
	// Gain clamping.
	if NewExpSmooth(-1).Alpha <= 0 || NewExpSmooth(5).Alpha != 1 {
		t.Error("alpha not clamped")
	}
}

func TestSelectorPicksMeanOnStationarySeries(t *testing.T) {
	s := DefaultSelector()
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		s.Update(100 + rng.NormFloat64()*10)
	}
	p, winner := s.Predict()
	if !almostEqual(p, 100, 0.05) {
		t.Errorf("prediction = %g, want ≈100", p)
	}
	// On i.i.d. noise an averaging expert must beat last-value.
	if winner == "last" {
		t.Errorf("winner = %q; last-value cannot win on white noise", winner)
	}
}

func TestSelectorAdaptsToRegimeSwitch(t *testing.T) {
	s := DefaultSelector()
	rng := rand.New(rand.NewSource(2))
	// Long stationary regime at 100, then a switch to 10.
	for range 500 {
		s.Update(100 + rng.NormFloat64())
	}
	for range 200 {
		s.Update(10 + rng.NormFloat64())
	}
	p, _ := s.Predict()
	// The running mean would still predict ≈74; the selector must
	// track the new regime much more closely.
	if p > 30 {
		t.Errorf("prediction = %g after regime switch, want near 10", p)
	}
}

func TestSelectorNearOracleOnStationary(t *testing.T) {
	s := DefaultSelector()
	rng := rand.New(rand.NewSource(3))
	for range 3000 {
		s.Update(50 + rng.NormFloat64()*5)
	}
	mae := func(i int) float64 { return s.absErr[i] / float64(s.n) }
	best, _ := s.Best()
	bestMAE := mae(best)
	// The selector's winner should be close to the oracle: no expert
	// can have dramatically lower error than the chosen one.
	for i := range s.experts {
		if mae(i) < bestMAE-1e-12 {
			t.Errorf("expert %d beats the selected best", i)
		}
	}
	// And the winning MAE is near the theoretical floor for N(0,5)
	// noise: E|X−µ| = 5·sqrt(2/π) ≈ 3.99.
	if bestMAE > 4.6 {
		t.Errorf("best MAE = %g, want ≲ 4.6", bestMAE)
	}
}

func TestSelectorEdgeCases(t *testing.T) {
	if _, err := NewSelector(); err == nil {
		t.Error("empty selector should error")
	}
	s := DefaultSelector()
	if p, _ := s.Predict(); !math.IsNaN(p) {
		t.Error("prediction before data should be NaN")
	}
	s.Update(5)
	if s.N() != 1 {
		t.Errorf("N = %d", s.N())
	}
	if len(s.experts) != 10 {
		t.Errorf("default battery size = %d", len(s.experts))
	}
}

func TestBandwidthPredictor(t *testing.T) {
	p := NewBandwidthPredictor()
	if _, err := p.PredictTransferSec(1000); err == nil {
		t.Error("prediction without observations should error")
	}
	// Invalid observations are rejected with the named error and leave
	// the predictor untouched.
	for _, tc := range []struct {
		bytes int64
		sec   float64
	}{
		{0, 10}, {-4, 10}, {100, 0}, {100, -1},
		{100, math.NaN()}, {100, math.Inf(1)}, {100, math.Inf(-1)},
	} {
		err := p.Observe(tc.bytes, tc.sec)
		if err == nil {
			t.Errorf("Observe(%d, %g) accepted an invalid measurement", tc.bytes, tc.sec)
		} else if !errors.Is(err, ErrInvalidObservation) {
			t.Errorf("Observe(%d, %g) error %v is not ErrInvalidObservation", tc.bytes, tc.sec, err)
		}
	}
	if p.N() != 0 {
		t.Errorf("invalid observations counted: %d", p.N())
	}
	if _, err := p.Bandwidth(); err == nil {
		t.Error("Bandwidth without observations should error")
	}
	// Stable 5 MB/s link.
	for range 50 {
		p.Observe(5<<20, 1)
	}
	sec, err := p.PredictTransferSec(500 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sec, 100, 1e-9) {
		t.Errorf("predicted %g s, want 100", sec)
	}
	if _, name := p.sel.Predict(); name == "" {
		t.Error("no best expert name")
	}
}

func TestBandwidthPredictorTracksDegradation(t *testing.T) {
	p := NewBandwidthPredictor()
	rng := rand.New(rand.NewSource(4))
	// Campus-quality bandwidth, then congestion halves it.
	for range 100 {
		p.Observe(1<<20, 0.2*(1+0.05*rng.NormFloat64()))
	}
	for range 40 {
		p.Observe(1<<20, 0.4*(1+0.05*rng.NormFloat64()))
	}
	sec, err := p.PredictTransferSec(500 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// New true time is 200 s; the stale estimate would be 100 s.
	if sec < 150 {
		t.Errorf("prediction %g s has not adapted to congestion", sec)
	}
}

func TestForecasterNames(t *testing.T) {
	for _, f := range []Forecaster{
		&LastValue{}, &RunningMean{}, NewSlidingMean(7),
		NewSlidingMedian(7), NewExpSmooth(0.3),
	} {
		if strings.TrimSpace(f.Name()) == "" {
			t.Errorf("%T has empty name", f)
		}
	}
}
