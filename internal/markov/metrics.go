package markov

import "github.com/cycleharvest/ckptsched/internal/obs"

// metrics holds the package's observability hooks. All fields are
// nil-safe obs metrics, so the zero value (instrumentation off) costs
// one predictable branch per schedule build and nothing per Γ probe.
var metrics struct {
	// builds counts BuildSchedule completions.
	builds *obs.Counter
	// goldenEvals counts objective (Γ(T)/T) evaluations performed by
	// the coarse-scan + golden-section optimizers — the unit of work
	// behind every T_opt search.
	goldenEvals *obs.Counter
}

// Instrument points the package's schedule-search metrics at r
// (DESIGN.md §11 lists the names). Call it before any scheduling work
// begins — typically from main — and do not call it concurrently with
// BuildSchedule or Topt. Instrument(nil) turns instrumentation off.
func Instrument(r *obs.Registry) {
	metrics.builds = r.Counter("markov_schedule_builds_total",
		"Aperiodic schedules built by BuildSchedule.")
	metrics.goldenEvals = r.Counter("markov_golden_evals_total",
		"Overhead-ratio objective evaluations during T_opt searches.")
}

// countedRatio wraps f, counting evaluations into *n. The optimizer
// sees the identical function values, so abscissae and ratios are
// unchanged; the count is flushed to the registry in one atomic add
// when the search finishes.
func countedRatio(f func(float64) float64, n *uint64) func(float64) float64 {
	return func(T float64) float64 {
		*n++
		return f(T)
	}
}
