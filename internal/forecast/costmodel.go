package forecast

import "math"

// CostModel maps a work-interval length to a predicted checkpoint
// cost C(T) in seconds, for schedulers running delta checkpoints over
// a forecast network. The model is the delta-dirtying law composed
// with a bandwidth forecast:
//
//	wire(T) = FullBytes · (1 − exp(−DirtyRate·T))
//	C(T)    = LatencySec + wire(T) / bandwidth
//
// Each chunk of the image is dirtied by a Poisson process of rate
// DirtyRate, so after T seconds of work a chunk has been touched with
// probability 1 − exp(−DirtyRate·T); summed over the image that is the
// expected delta payload. Short intervals ship small deltas (cheap
// checkpoints), long intervals converge to the full-image cost — the
// interval dependence the constant-C Markov model cannot express.
type CostModel struct {
	// FullBytes is the full checkpoint image size.
	FullBytes int64
	// DirtyRate is the per-chunk dirtying rate in 1/seconds. A rate r
	// means a fraction 1−exp(−r·T) of the image is dirty after T
	// seconds of work.
	DirtyRate float64
	// LatencySec is the fixed per-checkpoint overhead (quiesce,
	// handshake, manifest exchange) independent of payload size.
	LatencySec float64
	// MinSec floors the curve; defaults to 1e-3 (matching the Markov
	// optimizer's own floor) when zero.
	MinSec float64
}

// Curve binds the model to a bandwidth forecast (bytes/second) and
// returns the C(T) function, suitable for markov.Model.CostFn. It
// returns nil when the inputs cannot produce a meaningful curve — a
// non-positive or non-finite bandwidth, a non-positive image size, or
// a non-positive dirty rate (no delta signal: cost is genuinely
// constant and the caller should keep the constant-C model).
func (m CostModel) Curve(bandwidth float64) func(T float64) float64 {
	if !(bandwidth > 0) || math.IsInf(bandwidth, 0) {
		return nil
	}
	if m.FullBytes <= 0 || !(m.DirtyRate > 0) || math.IsInf(m.DirtyRate, 0) {
		return nil
	}
	full := float64(m.FullBytes)
	rate := m.DirtyRate
	lat := m.LatencySec
	if lat < 0 || math.IsNaN(lat) || math.IsInf(lat, 0) {
		lat = 0
	}
	floor := m.MinSec
	if floor <= 0 {
		floor = 1e-3
	}
	return func(T float64) float64 {
		if !(T > 0) {
			return floor
		}
		// -Expm1(-rate*T) = 1 - exp(-rate*T), accurate for small rate*T
		// where the subtraction would cancel.
		wire := full * -math.Expm1(-rate*T)
		c := lat + wire/bandwidth
		if !(c > floor) {
			return floor
		}
		return c
	}
}
