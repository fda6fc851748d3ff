package forecast

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidObservation reports a transfer measurement that cannot be
// turned into a bandwidth sample: a zero, negative, or non-finite
// duration, or a non-positive byte count. Zero durations are the
// classic failure mode — a clock with coarse resolution timing a tiny
// (or fully deduped delta) transfer — and folding them in would launch
// an infinite-bandwidth expert that poisons every later forecast.
var ErrInvalidObservation = errors.New("forecast: invalid transfer observation")

// BandwidthPredictor turns observed transfer measurements into
// predicted transfer times for future checkpoints — the "predictions
// of network performance to the storage site" the scheduling system
// consumes. It forecasts bandwidth (bytes/second) rather than raw
// durations so predictions transfer across image sizes.
type BandwidthPredictor struct {
	sel *Selector
}

// NewBandwidthPredictor returns a predictor backed by the default NWS
// expert battery.
func NewBandwidthPredictor() *BandwidthPredictor {
	return &BandwidthPredictor{sel: DefaultSelector()}
}

// Observe records a completed (or partially completed) transfer of n
// bytes that took sec seconds. Measurements with a zero, negative, or
// non-finite duration — or a non-positive size — are rejected with
// ErrInvalidObservation and leave the predictor untouched.
func (p *BandwidthPredictor) Observe(bytes int64, sec float64) error {
	if bytes <= 0 {
		return fmt.Errorf("%w: %d bytes", ErrInvalidObservation, bytes)
	}
	if sec <= 0 || math.IsInf(sec, 0) || math.IsNaN(sec) {
		return fmt.Errorf("%w: duration %gs", ErrInvalidObservation, sec)
	}
	p.sel.Update(float64(bytes) / sec)
	return nil
}

// N returns the number of observations recorded.
func (p *BandwidthPredictor) N() int { return p.sel.N() }

// PredictTransferSec forecasts how long a transfer of n bytes will
// take. It errors until at least one observation has been recorded.
func (p *BandwidthPredictor) PredictTransferSec(bytes int64) (float64, error) {
	bw, _ := p.sel.Predict()
	if math.IsNaN(bw) || bw <= 0 {
		return 0, errors.New("forecast: no bandwidth observations yet")
	}
	return float64(bytes) / bw, nil
}

// Bandwidth returns the current bandwidth forecast in bytes/second,
// or an error until at least one observation has been recorded.
func (p *BandwidthPredictor) Bandwidth() (float64, error) {
	bw, _ := p.sel.Predict()
	if math.IsNaN(bw) || bw <= 0 {
		return 0, errors.New("forecast: no bandwidth observations yet")
	}
	return bw, nil
}
