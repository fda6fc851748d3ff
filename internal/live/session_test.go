package live

import (
	"math"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// TestSessionWaitPrecedence pins what happens when the owner's reclaim,
// a predictor alarm and the end of a phase fall on the same instant:
// reclaim before alarm before phase end. Each case is a session built
// by hand and a sequence of waits; booked is the ledger's alarm count
// after each.
func TestSessionWaitPrecedence(t *testing.T) {
	type step struct {
		dur           float64
		interruptible bool
		want          ending
		now           float64
		booked        int
	}
	falseAt := func(at ...float64) []predict.Event {
		var evs []predict.Event
		for _, a := range at {
			evs = append(evs, predict.Event{At: a})
		}
		return evs
	}
	for _, c := range []struct {
		name      string
		policy    predict.Policy
		reclaimAt float64
		alarms    []predict.Event
		steps     []step
	}{
		{
			// The proactive checkpoint that follows covers the whole
			// interval: the alarm wins the tie with the scheduled one.
			name: "alarm exactly at work end interrupts", policy: predict.PolicyProactive,
			reclaimAt: 1000, alarms: falseAt(100),
			steps: []step{{100, true, alarmed, 100, 1}},
		},
		{
			// Not acted on and not booked: Ledger.Evict settles it as
			// pending, which TestAlarmAtTheReclaimIsSettledNotActedOn
			// checks through a whole session.
			name: "alarm exactly at the reclaim is left to the eviction", policy: predict.PolicyMigrate,
			reclaimAt: 100, alarms: []predict.Event{{At: 100, True: true}},
			steps: []step{{500, true, evicted, 100, 0}},
		},
		{
			name: "reclaim exactly at transfer end loses the transfer", policy: predict.PolicyProactive,
			reclaimAt: 110, alarms: nil,
			steps: []step{{110, false, evicted, 110, 0}},
		},
		{
			// The first alarm cuts the work short; the second fires at
			// the same instant, during the transfer the first triggered,
			// where there is nothing new to save.
			name: "coincident alarms: the second is booked during the transfer", policy: predict.PolicyProactive,
			reclaimAt: 1000, alarms: falseAt(50, 50),
			steps: []step{{100, true, alarmed, 50, 1}, {110, false, ran, 160, 2}},
		},
		{
			name: "an alarm mid-transfer is booked and the transfer runs on", policy: predict.PolicyMigrate,
			reclaimAt: 1000, alarms: falseAt(30),
			steps: []step{{110, false, ran, 110, 1}, {100, true, ran, 210, 1}},
		},
		{
			name: "the reactive policy makes wait uninterruptible", policy: predict.PolicyReactive,
			reclaimAt: 1000, alarms: falseAt(30, 100),
			steps: []step{{100, true, ran, 100, 2}},
		},
	} {
		s := &session{cfg: CampaignConfig{Policy: c.policy}, reclaimAt: c.reclaimAt, alarms: c.alarms}
		for i, st := range c.steps {
			got := s.wait(st.dur, st.interruptible)
			if got != st.want || s.now != st.now || s.Predictions != st.booked {
				t.Errorf("%s, wait %d: ended %d at %g with %d alarms booked, want %d at %g with %d",
					c.name, i, got, s.now, s.Predictions, st.want, st.now, st.booked)
			}
		}
	}
}

// A reclaim that lands exactly when a transfer would have completed
// still loses it: the whole image crossed the wire and is billed, and
// nothing is measured or committed.
func TestReclaimAtTransferEndProratesInFull(t *testing.T) {
	const mb, sec = 500.0, 110.0
	bytes := int64(mb * ckptnet.MB)
	link := ckptnet.FixedLink("fixed", bytes, sec)
	s := &session{
		cfg:         CampaignConfig{Link: link, CheckpointMB: mb},
		bytes:       bytes,
		reclaimAt:   link.TransferTime(bytes, nil),
		pendingWork: 40,
	}
	if end := s.transfer("transfer.checkpoint", true); end != evicted {
		t.Fatalf("transfer ended %d, want evicted", end)
	}
	if s.TransferSec != s.reclaimAt || math.Abs(s.MBMoved-mb) > 1e-9 || s.LostWork != 40 {
		t.Errorf("billed %g s, %g MB, %g s lost; want %g s, %g MB, 40 s", s.TransferSec, s.MBMoved, s.LostWork, s.reclaimAt, mb)
	}
	if s.hasBase || s.CommittedWork != 0 {
		t.Errorf("an evicted transfer committed: base %v, work %g", s.hasBase, s.CommittedWork)
	}
}

// With a perfect predictor and no lead time every session's one alarm
// is due at the reclaim itself. The reclaim comes first, so no policy
// acts on it — no migration, no proactive checkpoint — yet it fired,
// and the eviction it predicted is a hit.
func TestAlarmAtTheReclaimIsSettledNotActedOn(t *testing.T) {
	c := predictCampaign(t, predict.Perfect(0), predict.PolicyMigrate, ckptnet.CampusLink())
	base := predictCampaign(t, predict.Config{}, predict.PolicyReactive, ckptnet.CampusLink())
	for i, s := range c.Samples {
		if s.Predictions != 1 || s.PredHits != 1 || s.Migrated || s.ProactiveCheckpoints != 0 {
			t.Errorf("sample %d: %+v, migrated %v", i, s.Ledger, s.Migrated)
		}
		if s.CommittedWork != base.Samples[i].CommittedWork || s.MBMoved != base.Samples[i].MBMoved {
			t.Errorf("sample %d: an alarm at the reclaim changed the session", i)
		}
	}
}

// TestAbandonedRecoveryStillEstablishesADeltaBase: a session whose
// recovery was abandoned after MaxAttempts has no image at the manager
// until its first checkpoint commits a full one — which is then the
// base, as ckptnet's CommitBase makes it, so every later checkpoint
// ships as a delta.
func TestAbandonedRecoveryStillEstablishesADeltaBase(t *testing.T) {
	machines, history := testbed(t, 16, 11)
	camp, err := RunCampaign(CampaignConfig{
		Machines: machines,
		History:  history,
		Link: ckptnet.ChaosLink{
			Inner:  ckptnet.CampusLink(),
			Faults: ckptnet.LinkFaultConfig{TearProb: 0.5},
		},
		SamplesPerModel: 40,
		Seed:            11,
		// Deltas stay well under the image, so none rounds up to full.
		Delta: DeltaPolicy{Enabled: true, DirtyRate: 0.0001},
	})
	if err != nil {
		t.Fatal(err)
	}
	abandoned := 0
	for i, s := range camp.Samples {
		// Every committed transfer is measured, the recovery first: as
		// many measurements as checkpoints means it never completed.
		if len(s.MeasuredCs) != s.Checkpoints || s.Checkpoints < 2 {
			continue
		}
		abandoned++
		if s.DeltaCheckpoints != s.Checkpoints-1 {
			t.Errorf("sample %d: recovery abandoned, then %d checkpoints of which %d deltas (%.0f MB moved); want all but the first",
				i, s.Checkpoints, s.DeltaCheckpoints, s.MBMoved)
		}
	}
	if abandoned == 0 {
		t.Fatal("no session abandoned its recovery and went on to checkpoint twice; pick a seed that exercises the path")
	}
}
