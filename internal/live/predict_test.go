package live

import (
	"reflect"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

func predictCampaign(t *testing.T, cfg predict.Config, policy predict.Policy, link ckptnet.Link) *Campaign {
	t.Helper()
	machines, history := testbed(t, 12, 7)
	c, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            link,
		SamplesPerModel: 3,
		Seed:            7,
		Predict:         cfg,
		Policy:          policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A disabled predictor must leave the campaign bit-identical to one
// that never heard of prediction, whatever the policy says.
func TestCampaignDisabledPredictorChangesNothing(t *testing.T) {
	base := predictCampaign(t, predict.Config{}, predict.PolicyReactive, ckptnet.CampusLink())
	for _, policy := range []predict.Policy{predict.PolicyProactive, predict.PolicyMigrate} {
		got := predictCampaign(t, predict.Config{}, policy, ckptnet.CampusLink())
		if !reflect.DeepEqual(base.Samples, got.Samples) {
			t.Errorf("policy %v with disabled predictor diverged", policy)
		}
	}
}

// Reactive sessions count alarms without acting on them, and the
// physics stay bit-identical: alarm draws come from a private stream
// and reactive alarms change no transfer or schedule decisions.
func TestCampaignReactiveCountsButDoesNotAct(t *testing.T) {
	base := predictCampaign(t, predict.Config{}, predict.PolicyReactive, ckptnet.CampusLink())
	got := predictCampaign(t, predict.Config{Precision: 0.5, Recall: 0.8, LeadSec: 300},
		predict.PolicyReactive, ckptnet.CampusLink())
	tot := got.PredictionTotals()
	fired, hits, falses, missed := tot.Predictions, tot.PredHits, tot.PredFalse, tot.PredMissed
	proactive, migrations := tot.ProactiveCheckpoints, tot.Migrations
	if fired == 0 || hits == 0 {
		t.Errorf("expected alarms, got fired=%d hits=%d", fired, hits)
	}
	if falses == 0 {
		t.Error("precision 0.5 fired no false alarms")
	}
	if hits+missed != len(got.Samples) {
		t.Errorf("hits %d + missed %d != %d sessions", hits, missed, len(got.Samples))
	}
	if proactive != 0 || migrations != 0 {
		t.Errorf("reactive campaign acted: proactive=%d migrations=%d", proactive, migrations)
	}
	for i := range got.Samples {
		if got.Samples[i].SessionSec != base.Samples[i].SessionSec ||
			got.Samples[i].MBMoved != base.Samples[i].MBMoved ||
			got.Samples[i].CommittedWork != base.Samples[i].CommittedWork {
			t.Fatalf("reactive predictor changed session %d physics", i)
		}
	}
}

func TestCampaignProactivePolicy(t *testing.T) {
	base := predictCampaign(t, predict.Config{}, predict.PolicyReactive, ckptnet.CampusLink())
	got := predictCampaign(t, predict.Perfect(300), predict.PolicyProactive, ckptnet.CampusLink())
	tot := got.PredictionTotals()
	hits, falses, missed, proactive := tot.PredHits, tot.PredFalse, tot.PredMissed, tot.ProactiveCheckpoints
	if proactive == 0 {
		t.Fatal("no proactive checkpoints committed")
	}
	if falses != 0 || missed != 0 {
		t.Errorf("perfect predictor: false=%d missed=%d", falses, missed)
	}
	if hits != len(got.Samples) {
		t.Errorf("hits %d != %d sessions", hits, len(got.Samples))
	}
	var baseLost, gotLost float64
	for i := range base.Samples {
		baseLost += base.Samples[i].LostWork
		gotLost += got.Samples[i].LostWork
	}
	if gotLost >= baseLost {
		t.Errorf("proactive lost %g >= reactive lost %g", gotLost, baseLost)
	}
}

func TestCampaignMigratePolicy(t *testing.T) {
	got := predictCampaign(t, predict.Perfect(300), predict.PolicyMigrate, ckptnet.CampusLink())
	tot := got.PredictionTotals()
	migrations, migrationMB := tot.Migrations, tot.MigrationMB
	if migrations == 0 {
		t.Fatal("no migrations completed")
	}
	if migrationMB != float64(migrations)*500 {
		t.Errorf("migration MB %g, want %g", migrationMB, float64(migrations)*500)
	}
	var sawMigrated bool
	for _, s := range got.Samples {
		if s.Migrated {
			sawMigrated = true
			if s.Migrations == 0 {
				t.Errorf("migrated sample has no migration count: %+v", s)
			}
			// A migrated session ended before the owner's reclaim.
			if s.SessionSec <= 0 {
				t.Errorf("migrated sample has no session time: %+v", s)
			}
			if s.MigrationMB > s.MBMoved {
				t.Errorf("migration MB %g exceeds session total %g", s.MigrationMB, s.MBMoved)
			}
			// No eviction was experienced: neither hit nor miss.
			if s.PredHits != 0 || s.PredMissed != 0 {
				t.Errorf("migrated sample settled hit/miss: %+v", s)
			}
		}
	}
	if !sawMigrated {
		t.Error("no sample carries the Migrated flag")
	}
}

// Prediction-triggered checkpoints must also work over a chaos link —
// the live acceptance scenario — with migrations surviving retries.
func TestCampaignPredictUnderChaos(t *testing.T) {
	chaos := ckptnet.ChaosLink{
		Inner: ckptnet.CampusLink(),
		Faults: ckptnet.LinkFaultConfig{
			TearProb:   0.20,
			StallProb:  0.10,
			StallSec:   30,
			OutageProb: 0.15,
		},
	}
	got := predictCampaign(t, predict.Config{Precision: 0.85, Recall: 0.8, LeadSec: 240},
		predict.PolicyMigrate, chaos)
	if len(got.Samples) != 12 {
		t.Fatalf("samples = %d, want 12 (no aborted sessions)", len(got.Samples))
	}
	tot := got.PredictionTotals()
	fired, migrations, migrationMB := tot.Predictions, tot.Migrations, tot.MigrationMB
	if fired == 0 {
		t.Error("no alarms fired under chaos")
	}
	if migrations == 0 {
		t.Error("no migrations under chaos")
	}
	if migrations > 0 && migrationMB <= 0 {
		t.Error("migrations moved no bytes")
	}
}

func TestCampaignPredictDeterminism(t *testing.T) {
	run := func() *Campaign {
		return predictCampaign(t, predict.Config{Precision: 0.6, Recall: 0.7, LeadSec: 200},
			predict.PolicyMigrate, ckptnet.CampusLink())
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Error("predict campaign not deterministic")
	}
}

func TestCampaignRejectsInvalidPredict(t *testing.T) {
	machines, history := testbed(t, 3, 7)
	_, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 1,
		Seed:            7,
		Predict:         predict.Config{Precision: -1, Recall: 0.5},
	})
	if err == nil {
		t.Error("invalid predictor config accepted")
	}
}
