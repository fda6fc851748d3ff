package predict

import "github.com/cycleharvest/ckptsched/internal/obs"

// Ledger is the predictor score card of one simulation run or live
// session: parallel.Result and live.Sample embed it, so both engines
// book alarms, settle evictions and emit the predict.* trace events
// through the same code. All zero when prediction is disabled.
type Ledger struct {
	// Predictions counts predictor alarms fired (true and false);
	// PredHits counts failures that arrived with a true alarm raised,
	// PredFalse counts false alarms, and PredMissed counts failures
	// that arrived unwarned.
	Predictions, PredHits, PredFalse, PredMissed int
	// ProactiveCheckpoints counts alarm-triggered checkpoints that
	// committed (PolicyProactive); Migrations counts completed
	// prediction-triggered migrations (PolicyMigrate) and MigrationMB
	// the megabytes they moved (a subset of the owner's network total).
	ProactiveCheckpoints, Migrations int
	MigrationMB                      float64
}

// Alarm books one fired alarm, traces it at time at on lane (pid, tid)
// — "predict.fired", plus "predict.false" for a false alarm — and
// reports whether it was a true one. A nil tracer only counts.
func (l *Ledger) Alarm(tr *obs.Tracer, pid, tid uint64, at float64, ev Event) bool {
	l.Predictions++
	if !ev.True {
		l.PredFalse++
	}
	if tr != nil {
		tr.EventAt(pid, tid, "predict.fired", at, obs.AttrBool("true", ev.True))
		if !ev.True {
			tr.EventAt(pid, tid, "predict.false", at)
		}
	}
	return ev.True
}

// Evict settles the books for a period that began at start and ended
// in an eviction at time at: the alarms it never reached (pending,
// offsets from start) still fired, and the eviction is a hit
// ("predict.hit") when a true alarm preceded it — warned, or one of
// pending — and a miss ("predict.miss") otherwise.
func (l *Ledger) Evict(tr *obs.Tracer, pid, tid uint64, start, at float64, pending []Event, warned bool) {
	for _, ev := range pending {
		if l.Alarm(tr, pid, tid, start+ev.At, ev) {
			warned = true
		}
	}
	name := "predict.miss"
	if warned {
		l.PredHits++
		name = "predict.hit"
	} else {
		l.PredMissed++
	}
	if tr != nil {
		tr.EventAt(pid, tid, name, at)
	}
}

// AddMigration books one completed migration of an mb-megabyte image.
func (l *Ledger) AddMigration(mb float64) {
	l.Migrations++
	l.MigrationMB += mb
}

// Add merges o into l (campaign totals over session ledgers).
func (l *Ledger) Add(o Ledger) {
	l.Predictions += o.Predictions
	l.PredHits += o.PredHits
	l.PredFalse += o.PredFalse
	l.PredMissed += o.PredMissed
	l.ProactiveCheckpoints += o.ProactiveCheckpoints
	l.Migrations += o.Migrations
	l.MigrationMB += o.MigrationMB
}
