package obs

// SLO tracking in the Google SRE idiom: a route promises an
// availability objective ("99.9% of requests succeed within the
// latency target"), the complement is the error budget, and the burn
// rate says how fast the budget is being spent — burn 1.0 exactly
// exhausts the budget over the objective period, burn 14.4 on the
// 5-minute window is the classic page-now threshold. Burn over a
// trailing window W is
//
//	burn_W = (bad_W / total_W) / (1 - objective)
//
// computed from cumulative good/bad counters differenced against a
// ring of (timestamp, good, bad) samples recorded once per history
// window. Two windows are tracked (5 m and 1 h — multi-window so a
// short spike and a slow leak are both visible), exported as slo_*
// float gauges so they ride the ordinary exposition and history paths.
//
// The observe path is two predictable branches and one atomic
// increment — allocation-free, safe for the serve fast path. All
// window arithmetic happens at Update time, which the server wiring
// hangs off History.OnScrape so the gauges refresh just before each
// snapshot is taken.

import "sync"

// Burn-rate windows (seconds). Both much shorter than the sample ring
// horizon at the default 1 s scrape cadence (sloRingCap windows).
const (
	sloShortWindow = 300.0
	sloLongWindow  = 3600.0
	sloRingCap     = 4096
)

// SLO tracks one route's objective. Build with NewSLO; nil no-ops.
type SLO struct {
	latencyTarget float64
	budget        float64 // 1 - objective

	good *Counter
	bad  *Counter

	burnShort *FloatGauge
	burnLong  *FloatGauge

	mu      sync.Mutex
	ring    [sloRingCap]sloSample
	samples uint64 // total samples recorded
}

// sloSample is one cumulative reading.
type sloSample struct {
	ts        float64
	good, bad uint64
}

// NewSLO registers a route's SLO metrics on reg and returns the
// tracker. route becomes part of the metric names — slo_<route>_*: a
// good/bad request counter pair and burn-rate gauges for the 5-minute
// and 1-hour windows. latencyTarget is the per-request latency bound in
// seconds (a slower success counts against the budget); objective is
// the availability target in (0,1), e.g. 0.999. Returns nil on a nil
// registry.
func NewSLO(reg *Registry, route string, latencyTarget, objective float64) *SLO {
	if reg == nil {
		return nil
	}
	if objective <= 0 || objective >= 1 {
		panic("obs: SLO objective must be in (0,1)")
	}
	return &SLO{
		latencyTarget: latencyTarget,
		budget:        1 - objective,
		good:          reg.Counter("slo_"+route+"_good_total", "Requests within the "+route+" SLO."),
		bad:           reg.Counter("slo_"+route+"_bad_total", "Requests violating the "+route+" SLO."),
		burnShort:     reg.FloatGauge("slo_"+route+"_burn_5m", "Error-budget burn rate for "+route+" over 5 minutes."),
		burnLong:      reg.FloatGauge("slo_"+route+"_burn_1h", "Error-budget burn rate for "+route+" over 1 hour."),
	}
}

// Observe classifies one request: failures and successes slower than
// the latency target burn budget, everything else honors it.
// Allocation-free and safe for concurrent use; nil-safe.
func (s *SLO) Observe(latencySeconds float64, ok bool) {
	if s == nil {
		return
	}
	if ok && latencySeconds <= s.latencyTarget {
		s.good.Inc()
	} else {
		s.bad.Inc()
	}
}

// Attach hangs Update off the history's scrape cycle so burn gauges
// refresh in the same window that snapshots them. Nil-safe.
func (s *SLO) Attach(h *History) {
	if s == nil {
		return
	}
	h.OnScrape(s.Update)
}

// Update records a cumulative sample at ts and recomputes both burn
// gauges from the trailing windows. Call once per scrape window (the
// hook Attach installs); ts shares whatever clock drives the history.
func (s *SLO) Update(ts float64) {
	if s == nil {
		return
	}
	good, bad := s.good.Value(), s.bad.Value()
	s.mu.Lock()
	s.ring[s.samples%sloRingCap] = sloSample{ts: ts, good: good, bad: bad}
	s.samples++
	s.burnShort.Set(s.burnLocked(ts, good, bad, sloShortWindow))
	s.burnLong.Set(s.burnLocked(ts, good, bad, sloLongWindow))
	s.mu.Unlock()
}

// burnLocked computes the burn rate over the trailing window: the bad
// fraction of requests since the newest sample at or before ts-window
// (the oldest retained sample when history is shorter than the
// window), divided by the error budget. Zero traffic burns nothing.
// Caller holds s.mu.
func (s *SLO) burnLocked(ts float64, good, bad uint64, window float64) float64 {
	n := s.samples
	if n == 0 {
		return 0
	}
	lo := uint64(0)
	if n > sloRingCap {
		lo = n - sloRingCap
	}
	cutoff := ts - window
	// Newest-first scan: the first sample old enough anchors the window.
	then := s.ring[lo%sloRingCap]
	for i := n; i > lo; i-- {
		smp := s.ring[(i-1)%sloRingCap]
		if smp.ts <= cutoff {
			then = smp
			break
		}
	}
	dBad := bad - then.bad
	dTotal := (good - then.good) + dBad
	if dTotal == 0 {
		return 0
	}
	return float64(dBad) / float64(dTotal) / s.budget
}
