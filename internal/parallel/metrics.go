package parallel

import "github.com/cycleharvest/ckptsched/internal/obs"

// linkPeak is the high-water mark of concurrent transfers on the
// shared link across all runs (parallel_link_concurrency_peak), set
// once per simulation in engine.finish. Nil-safe: uninstrumented runs
// pay one predictable branch per run.
var linkPeak *obs.Gauge

// Instrument points the package's simulation metric at r (DESIGN.md
// §11 lists the names). Call it before any simulations start —
// typically from main — and do not call it concurrently with Run or
// RunGrid. Instrument(nil) turns instrumentation off.
func Instrument(r *obs.Registry) {
	linkPeak = r.Gauge("parallel_link_concurrency_peak",
		"Peak number of simultaneous transfers sharing the link across all runs.")
}
