package markov

import (
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// TestBuildScheduleMetrics pins the schedule-search accounting: the
// build counter counts the build, every planned interval is either a
// warm-start hit or a cold scan (the build span's tallies), and the
// golden-eval counter tracks the objective probes behind them.
func TestBuildScheduleMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true})

	m := Model{Avail: dist.NewWeibull(0.43, 3409), Costs: mustCosts(t, 100, 100, 100)}
	s, err := m.BuildSchedule(0, ScheduleOptions{Horizon: 24 * 3600, Trace: tr, TracePid: 5})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["markov_schedule_builds_total"]; got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	var warm, cold int64
	for _, ev := range tr.Events() {
		if ev.Name != "markov.build_schedule" {
			continue
		}
		for _, a := range ev.Attrs {
			switch a.Key {
			case "warm_hits":
				warm = a.Value().(int64)
			case "cold_scans":
				cold = a.Value().(int64)
			}
		}
	}
	if int(warm+cold) != s.Len() {
		t.Errorf("warm %d + cold %d != %d intervals", warm, cold, s.Len())
	}
	if cold < 1 {
		t.Error("the first interval always cold-scans")
	}
	if warm == 0 {
		t.Error("a slowly drifting Weibull schedule should warm-start some intervals")
	}
	if evals := snap.Counters["markov_golden_evals_total"]; evals < uint64(warm+cold) {
		t.Errorf("golden evals = %d, expected at least one per search", evals)
	}

	// Instrumentation must not change the schedule itself.
	Instrument(nil)
	plain, err := m.BuildSchedule(0, ScheduleOptions{Horizon: 24 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != s.Len() {
		t.Fatalf("instrumented schedule has %d intervals, plain has %d", s.Len(), plain.Len())
	}
	for i := range plain.Intervals {
		if plain.Intervals[i] != s.Intervals[i] || plain.Ratios[i] != s.Ratios[i] {
			t.Fatalf("interval %d differs under instrumentation", i)
		}
	}
}
