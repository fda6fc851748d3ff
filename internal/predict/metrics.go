package predict

import "github.com/cycleharvest/ckptsched/internal/obs"

// Metrics holds the predictor's observability hooks. All fields are
// nil-safe obs counters; consumers keep a Ledger per run or session
// and Flush it here once.
var Metrics struct {
	// Fired counts alarms raised (true and false together).
	Fired *obs.Counter
	// Hits counts failures that arrived with a true alarm raised —
	// predictions that paid off.
	Hits *obs.Counter
	// False counts false alarms.
	False *obs.Counter
	// Missed counts failures that arrived with no true alarm.
	Missed *obs.Counter
	// ProactiveCheckpoints counts checkpoints taken because an alarm
	// fired (PolicyProactive).
	ProactiveCheckpoints *obs.Counter
	// Migrations counts completed prediction-triggered migrations
	// (PolicyMigrate).
	Migrations *obs.Counter
}

// Instrument points the package's metrics at r (DESIGN.md §13 lists
// the names). Call before simulations start, typically from main;
// Instrument(nil) turns instrumentation off.
func Instrument(r *obs.Registry) {
	Metrics.Fired = r.Counter("predict_fired_total",
		"Fault-predictor alarms raised (true and false).")
	Metrics.Hits = r.Counter("predict_hits_total",
		"Failures that arrived with a true alarm raised.")
	Metrics.False = r.Counter("predict_false_total",
		"False alarms raised.")
	Metrics.Missed = r.Counter("predict_missed_total",
		"Failures that arrived unpredicted.")
	Metrics.ProactiveCheckpoints = r.Counter("predict_proactive_checkpoints_total",
		"Checkpoints triggered by predictor alarms.")
	Metrics.Migrations = r.Counter("predict_migrations_total",
		"Completed prediction-triggered migrations.")
}
