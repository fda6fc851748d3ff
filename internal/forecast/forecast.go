// Package forecast predicts network performance to the checkpoint
// storage site, the second input of the paper's scheduling system
// ("we combine this model with predictions of network performance to
// the storage site to compute a checkpoint schedule").
//
// The design follows the Network Weather Service's mixture-of-experts
// scheme (Wolski et al.): a battery of simple forecasters — last
// value, running and sliding means, sliding median, exponential
// smoothing at several gains — each predicts the next measurement;
// the Selector tracks every expert's cumulative error and answers
// with the prediction of the expert that has been most accurate so
// far. On stationary series a mean wins, on regime switches the
// short-memory experts take over, and the user never has to choose.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Forecaster predicts the next value of a series from the values seen
// so far.
type Forecaster interface {
	// Name identifies the forecaster in reports.
	Name() string
	// Update observes the next measurement.
	Update(x float64)
	// Predict forecasts the next measurement. Before any Update it
	// returns NaN.
	Predict() float64
}

// LastValue predicts the most recent measurement.
type LastValue struct {
	last float64
	seen bool
}

// Name implements Forecaster.
func (f *LastValue) Name() string { return "last" }

// Update implements Forecaster.
func (f *LastValue) Update(x float64) { f.last, f.seen = x, true }

// Predict implements Forecaster.
func (f *LastValue) Predict() float64 {
	if !f.seen {
		return math.NaN()
	}
	return f.last
}

// RunningMean predicts the mean of all measurements.
type RunningMean struct {
	sum float64
	n   int
}

// Name implements Forecaster.
func (f *RunningMean) Name() string { return "mean" }

// Update implements Forecaster.
func (f *RunningMean) Update(x float64) { f.sum += x; f.n++ }

// Predict implements Forecaster.
func (f *RunningMean) Predict() float64 {
	if f.n == 0 {
		return math.NaN()
	}
	return f.sum / float64(f.n)
}

// window is a fixed-size ring of recent measurements.
type window struct {
	buf  []float64
	next int
	full bool
}

func newWindow(k int) *window { return &window{buf: make([]float64, k)} }

func (w *window) push(x float64) {
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

func (w *window) values() []float64 {
	if w.full {
		out := make([]float64, len(w.buf))
		copy(out, w.buf)
		return out
	}
	out := make([]float64, w.next)
	copy(out, w.buf[:w.next])
	return out
}

// SlidingMean predicts the mean of the last K measurements.
type SlidingMean struct {
	K int
	w *window
}

// NewSlidingMean returns a sliding-mean forecaster over k values.
func NewSlidingMean(k int) *SlidingMean {
	if k < 1 {
		k = 1
	}
	return &SlidingMean{K: k, w: newWindow(k)}
}

// Name implements Forecaster.
func (f *SlidingMean) Name() string { return fmt.Sprintf("mean%d", f.K) }

// Update implements Forecaster.
func (f *SlidingMean) Update(x float64) { f.w.push(x) }

// Predict implements Forecaster.
func (f *SlidingMean) Predict() float64 {
	vs := f.w.values()
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// SlidingMedian predicts the median of the last K measurements —
// robust to the spikes shared networks produce.
type SlidingMedian struct {
	K int
	w *window
}

// NewSlidingMedian returns a sliding-median forecaster over k values.
func NewSlidingMedian(k int) *SlidingMedian {
	if k < 1 {
		k = 1
	}
	return &SlidingMedian{K: k, w: newWindow(k)}
}

// Name implements Forecaster.
func (f *SlidingMedian) Name() string { return fmt.Sprintf("median%d", f.K) }

// Update implements Forecaster.
func (f *SlidingMedian) Update(x float64) { f.w.push(x) }

// Predict implements Forecaster.
func (f *SlidingMedian) Predict() float64 {
	vs := f.w.values()
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return 0.5 * (vs[n/2-1] + vs[n/2])
}

// ExpSmooth predicts with exponential smoothing at gain Alpha:
// ŷ ← α·x + (1-α)·ŷ.
type ExpSmooth struct {
	Alpha float64
	yhat  float64
	seen  bool
}

// NewExpSmooth returns an exponential-smoothing forecaster; alpha is
// clamped to (0, 1].
func NewExpSmooth(alpha float64) *ExpSmooth {
	if alpha <= 0 {
		alpha = 0.05
	}
	if alpha > 1 {
		alpha = 1
	}
	return &ExpSmooth{Alpha: alpha}
}

// Name implements Forecaster.
func (f *ExpSmooth) Name() string { return fmt.Sprintf("expsmooth%.2g", f.Alpha) }

// Update implements Forecaster.
func (f *ExpSmooth) Update(x float64) {
	if !f.seen {
		f.yhat, f.seen = x, true
		return
	}
	f.yhat = f.Alpha*x + (1-f.Alpha)*f.yhat
}

// Predict implements Forecaster.
func (f *ExpSmooth) Predict() float64 {
	if !f.seen {
		return math.NaN()
	}
	return f.yhat
}

// Selector is the NWS mixture-of-experts: it scores every expert's
// one-step-ahead predictions by mean absolute error and answers with
// the current best expert's prediction.
type Selector struct {
	experts []Forecaster
	absErr  []float64 // cumulative |error| per expert
	n       int       // scored predictions so far
}

// NewSelector builds a selector over the given experts.
func NewSelector(experts ...Forecaster) (*Selector, error) {
	if len(experts) == 0 {
		return nil, errors.New("forecast: selector needs at least one expert")
	}
	return &Selector{experts: experts, absErr: make([]float64, len(experts))}, nil
}

// DefaultSelector returns the standard expert battery: last value,
// running mean, sliding means and medians over 5/10/30 values, and
// exponential smoothing at gains 0.1 and 0.4.
func DefaultSelector() *Selector {
	s, err := NewSelector(
		&LastValue{},
		&RunningMean{},
		NewSlidingMean(5), NewSlidingMean(10), NewSlidingMean(30),
		NewSlidingMedian(5), NewSlidingMedian(10), NewSlidingMedian(30),
		NewExpSmooth(0.1), NewExpSmooth(0.4),
	)
	if err != nil {
		// Unreachable: the battery is non-empty by construction.
		panic(err)
	}
	return s
}

// Update scores every expert's pending prediction against the new
// measurement, then lets every expert observe it.
func (s *Selector) Update(x float64) {
	for i, e := range s.experts {
		if p := e.Predict(); !math.IsNaN(p) {
			s.absErr[i] += math.Abs(p - x)
		}
	}
	s.n++
	for _, e := range s.experts {
		e.Update(x)
	}
}

// N returns the number of measurements observed.
func (s *Selector) N() int { return s.n }

// Best returns the index and name of the lowest-error expert.
func (s *Selector) Best() (int, string) {
	best := 0
	for i := range s.experts {
		if s.absErr[i] < s.absErr[best] {
			best = i
		}
	}
	return best, s.experts[best].Name()
}

// Predict returns the best expert's forecast and that expert's name.
// Before any measurement it returns NaN.
func (s *Selector) Predict() (float64, string) {
	if s.n == 0 {
		return math.NaN(), ""
	}
	i, name := s.Best()
	return s.experts[i].Predict(), name
}
