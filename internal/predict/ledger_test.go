package predict

import (
	"reflect"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// TestLedgerBooksAndTraces drives one ledger through a warned period,
// an unwarned one and a migration, and checks the two things the
// engines share through it: the tallies and the predict.* trace
// vocabulary (names, lane, timestamps, order).
func TestLedgerBooksAndTraces(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true})
	var l Ledger

	// Period 1 starts at 100: a false alarm fires at +10 and is acted
	// on; the true alarm at +50 is still pending when the eviction lands
	// at 160 — it still fired, so the eviction is a hit.
	if l.Alarm(tr, 3, 2, 110, Event{At: 10}) {
		t.Error("a false alarm reported true")
	}
	l.Evict(tr, 3, 2, 100, 160, []Event{{At: 50, True: true}}, false)
	// Period 2 starts at 200 and is evicted unwarned at 230.
	l.Evict(tr, 3, 2, 200, 230, nil, false)
	l.ProactiveCheckpoints++
	l.AddMigration(500)

	want := Ledger{Predictions: 2, PredHits: 1, PredFalse: 1, PredMissed: 1,
		ProactiveCheckpoints: 1, Migrations: 1, MigrationMB: 500}
	if l != want {
		t.Errorf("ledger = %+v, want %+v", l, want)
	}

	type ev struct {
		name string
		ts   float64
	}
	var got []ev
	for _, e := range tr.Events() {
		if e.Pid != 3 || e.Tid != 2 {
			t.Errorf("%s on lane (%d,%d), want (3,2)", e.Name, e.Pid, e.Tid)
		}
		got = append(got, ev{e.Name, e.Ts})
	}
	wantEvents := []ev{
		{"predict.fired", 110}, {"predict.false", 110},
		{"predict.fired", 150}, {"predict.hit", 160},
		{"predict.miss", 230},
	}
	if !reflect.DeepEqual(got, wantEvents) {
		t.Errorf("trace = %v, want %v", got, wantEvents)
	}

	// A nil tracer only counts.
	var quiet Ledger
	quiet.Evict(nil, 1, 1, 0, 10, []Event{{At: 5, True: true}}, false)
	if quiet.Predictions != 1 || quiet.PredHits != 1 {
		t.Errorf("untraced ledger = %+v", quiet)
	}
}
