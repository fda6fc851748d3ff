package forecast

import (
	"math"
	"testing"
)

func TestCostModelCurve(t *testing.T) {
	m := CostModel{FullBytes: 100 << 20, DirtyRate: 0.001, LatencySec: 2}
	bw := 10.0 * (1 << 20) // 10 MB/s
	fn := m.Curve(bw)
	if fn == nil {
		t.Fatal("valid model returned nil curve")
	}
	fullCost := m.LatencySec + float64(m.FullBytes)/bw // asymptote: 2 + 10 s

	// Monotone nondecreasing in T, always within (0, fullCost].
	prev := 0.0
	for _, T := range []float64{1, 10, 60, 300, 1800, 7200, 86400} {
		c := fn(T)
		if c < prev {
			t.Errorf("C(%g) = %v fell below C(prev) = %v", T, c, prev)
		}
		if !(c > 0) || c > fullCost+1e-9 {
			t.Errorf("C(%g) = %v outside (0, %v]", T, c, fullCost)
		}
		prev = c
	}
	// Long intervals converge to the full-image cost.
	if c := fn(1e7); !almostEqual(c, fullCost, 1e-6) {
		t.Errorf("C(∞) = %v, want %v", c, fullCost)
	}
	// Short intervals approach the fixed latency.
	if c := fn(0.001); c > m.LatencySec+0.01 {
		t.Errorf("C(0.001) = %v, want ≈ latency %v", c, m.LatencySec)
	}
	// Degenerate T hits the floor, never zero or negative.
	for _, T := range []float64{0, -5, math.NaN()} {
		if c := fn(T); !(c > 0) {
			t.Errorf("C(%g) = %v not positive", T, c)
		}
	}
}

func TestCostModelCurveFloor(t *testing.T) {
	// A tiny image over a fast link would cost ~1e-7 s; the curve must
	// clamp to the floor so the Markov bracket geometry stays sound.
	m := CostModel{FullBytes: 100, DirtyRate: 0.001}
	fn := m.Curve(1 << 30)
	if fn == nil {
		t.Fatal("nil curve")
	}
	if c := fn(10); c != 1e-3 {
		t.Errorf("sub-floor cost = %v, want clamped 1e-3", c)
	}
	m.MinSec = 0.5
	if c := m.Curve(1 << 30)(10); c != 0.5 {
		t.Errorf("custom floor ignored: %v", c)
	}
}

func TestCostModelCurveRejectsDegenerateInputs(t *testing.T) {
	base := CostModel{FullBytes: 1 << 20, DirtyRate: 0.001}
	for name, tc := range map[string]struct {
		m  CostModel
		bw float64
	}{
		"zero bandwidth":     {base, 0},
		"negative bandwidth": {base, -1},
		"inf bandwidth":      {base, math.Inf(1)},
		"nan bandwidth":      {base, math.NaN()},
		"zero image":         {CostModel{FullBytes: 0, DirtyRate: 0.001}, 1e6},
		"zero rate":          {CostModel{FullBytes: 1 << 20, DirtyRate: 0}, 1e6},
		"nan rate":           {CostModel{FullBytes: 1 << 20, DirtyRate: math.NaN()}, 1e6},
	} {
		if fn := tc.m.Curve(tc.bw); fn != nil {
			t.Errorf("%s: expected nil curve", name)
		}
	}
}
