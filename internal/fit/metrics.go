package fit

import "github.com/cycleharvest/ckptsched/internal/obs"

// metrics holds the package's observability hooks. All fields are
// nil-safe obs metrics, so the zero value (instrumentation off) costs
// one predictable branch per fit — never anything inside the EM inner
// loops, which only flush local tallies when an estimate completes.
var metrics struct {
	// emFits counts completed EM estimations, exact and censored; emIters
	// accumulates the iterations they took, so the ratio is the mean
	// EM convergence length.
	emFits, emIters *obs.Counter
	// cacheHits/cacheMisses/cacheWaits partition Cache.Fit calls:
	// served from a finished entry, first caller running the fit, or
	// blocked behind another caller's in-flight fit (single-flight).
	cacheHits, cacheMisses, cacheWaits *obs.Counter
	// cacheEvictions counts entries a bounded cache dropped to stay
	// within its size budget.
	cacheEvictions *obs.Counter
}

// Instrument points the package's estimation metrics at r (DESIGN.md
// §11 lists the names). Call it before any fitting work begins —
// typically from main — and do not call it concurrently with Fit or
// Cache.Fit. Instrument(nil) turns instrumentation off.
func Instrument(r *obs.Registry) {
	metrics.emFits = r.Counter("fit_em_fits_total",
		"Completed hyperexponential EM estimations.")
	metrics.emIters = r.Counter("fit_em_iterations_total",
		"EM iterations accumulated across all hyperexponential fits.")
	metrics.cacheHits = r.Counter("fit_cache_hits_total",
		"Cache.Fit calls served from an already-fitted entry.")
	metrics.cacheMisses = r.Counter("fit_cache_misses_total",
		"Cache.Fit calls that created the entry and ran the fit.")
	metrics.cacheWaits = r.Counter("fit_cache_waits_total",
		"Cache.Fit calls that blocked behind another caller's in-flight fit.")
	metrics.cacheEvictions = r.Counter("fit_cache_evictions_total",
		"Finished entries a bounded Cache evicted to stay within MaxEntries.")
}
