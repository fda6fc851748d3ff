package condor

import (
	"math"
	"testing"
	"time"

	"github.com/cycleharvest/ckptsched/internal/stats"
)

func TestCollectTracesMatchesIdlePeriods(t *testing.T) {
	// With one monitor per machine, every idle period is fully
	// occupied, so recorded durations follow the idle distribution.
	machines := []Machine{testMachine("m1", 1024), testMachine("m2", 1024)}
	p, err := NewPool(machines, 9)
	if err != nil {
		t.Fatal(err)
	}
	set, err := CollectTraces(p, MonitorConfig{Monitors: 2, Duration: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) != 2 {
		t.Fatalf("machines observed: %v", set.Machines())
	}
	for _, name := range set.Machines() {
		tr := set.Traces[name]
		if tr.Len() < 50 {
			t.Errorf("%s: only %d occupancies", name, tr.Len())
		}
		// Idle durations are tightly concentrated around 1000 s.
		m := stats.Mean(tr.Durations())
		if math.Abs(m-1000) > 50 {
			t.Errorf("%s: mean occupancy %g, want ≈1000", name, m)
		}
		// Timestamps are anchored at the paper's epoch.
		if tr.Records[0].Start.Year() != 2003 {
			t.Errorf("%s: first record at %v", name, tr.Records[0].Start)
		}
	}
}

func TestCollectTracesFewMonitorsUndersampleMachines(t *testing.T) {
	// With far fewer monitors than machines, some machines get few or
	// no observations — the paper's "sufficient number of times"
	// filter exists for exactly this reason.
	machines, err := SyntheticPool(SyntheticPoolConfig{Machines: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(machines, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := CollectTraces(p, MonitorConfig{Monitors: 6, Duration: MonthsSeconds(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) >= 60 {
		t.Errorf("expected undersampling, but %d machines observed", len(set.Traces))
	}
	if len(set.Traces) == 0 {
		t.Fatal("no traces at all")
	}
}

func TestCollectTracesErrors(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m", 512)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectTraces(nil, MonitorConfig{Monitors: 1, Duration: 10}); err == nil {
		t.Error("nil pool should error")
	}
	if _, err := CollectTraces(p, MonitorConfig{Monitors: 0, Duration: 10}); err == nil {
		t.Error("zero monitors should error")
	}
	if _, err := CollectTraces(p, MonitorConfig{Monitors: 1, Duration: 0}); err == nil {
		t.Error("zero duration should error")
	}
}

func TestCollectTracesCustomEpoch(t *testing.T) {
	p, err := NewPool([]Machine{testMachine("m", 512)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	set, err := CollectTraces(p, MonitorConfig{Monitors: 1, Duration: 50000, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.Traces["m"]
	if tr == nil || tr.Len() == 0 {
		t.Fatal("no records")
	}
	if tr.Records[0].Start.Before(epoch) {
		t.Errorf("record before epoch: %v", tr.Records[0].Start)
	}
}

func TestCollectTracesIncludeCensored(t *testing.T) {
	// End the campaign mid-occupancy: with IncludeCensored the
	// in-progress occupancies appear as censored records.
	machines := []Machine{testMachine("m1", 1024)}
	run := func(includeCensored bool) int {
		p, err := NewPool(machines, 3)
		if err != nil {
			t.Fatal(err)
		}
		set, err := CollectTraces(p, MonitorConfig{
			Monitors:        1,
			Duration:        10500, // idle ≈1000/busy ≈500 cycles: ends mid-period
			IncludeCensored: includeCensored,
		})
		if err != nil {
			t.Fatal(err)
		}
		censored := 0
		total := 0
		for _, name := range set.Machines() {
			_, flags := set.Traces[name].Observations()
			for _, c := range flags {
				total++
				if c {
					censored++
				}
			}
		}
		if !includeCensored && censored != 0 {
			t.Errorf("censored records without IncludeCensored: %d", censored)
		}
		if total == 0 {
			t.Fatal("no records")
		}
		return censored
	}
	run(false)
	// With the same seed the campaign is deterministic; the monitor is
	// mid-occupancy at t=10500 (cycles of ≈1500 s starting idle), so
	// exactly one censored record must appear.
	if got := run(true); got != 1 {
		t.Errorf("censored records = %d, want 1", got)
	}
}

func TestSyntheticPoolProperties(t *testing.T) {
	machines, err := SyntheticPool(SyntheticPoolConfig{Machines: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 200 {
		t.Fatalf("count = %d", len(machines))
	}
	names := make(map[string]bool)
	small := 0
	for _, m := range machines {
		if names[m.Name] {
			t.Fatalf("duplicate name %q", m.Name)
		}
		names[m.Name] = true
		if m.Idle == nil || m.Busy == nil {
			t.Fatalf("%s: missing distributions", m.Name)
		}
		if m.MemoryMB < 512 {
			small++
		}
		// Idle means should be in a plausible desktop range: minutes
		// to a couple of days.
		mean := m.Idle.Mean()
		if mean < 60 || mean > 6*24*3600 {
			t.Errorf("%s: idle mean %g s out of range", m.Name, mean)
		}
	}
	frac := float64(small) / 200
	if frac < 0.05 || frac > 0.30 {
		t.Errorf("small-memory fraction = %g, want ≈0.15", frac)
	}
	// Determinism.
	again, err := SyntheticPool(SyntheticPoolConfig{Machines: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range machines {
		if machines[i].Name != again[i].Name || machines[i].MemoryMB != again[i].MemoryMB {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	if _, err := SyntheticPool(SyntheticPoolConfig{Machines: 0}); err == nil {
		t.Error("zero machines should error")
	}
}

func TestDiurnalModulation(t *testing.T) {
	// Working-hours classification: virtual time 0 is Monday 00:00.
	cases := []struct {
		t    float64
		want bool
	}{
		{0, false},                   // Monday midnight
		{10 * 3600, true},            // Monday 10:00
		{17*3600 + 1, false},         // Monday 17:00+
		{24*3600 + 12*3600, true},    // Tuesday noon
		{5*24*3600 + 12*3600, false}, // Saturday noon
		{6*24*3600 + 12*3600, false}, // Sunday noon
		{7*24*3600 + 10*3600, true},  // next Monday 10:00
	}
	for _, c := range cases {
		if got := workingHours(c.t); got != c.want {
			t.Errorf("workingHours(%g) = %v, want %v", c.t, got, c.want)
		}
	}
	if diurnalFactor(10*3600, 0) != 1 {
		t.Error("amplitude 0 must not modulate")
	}
	if f := diurnalFactor(10*3600, 1); f != 0.5 {
		t.Errorf("work-hours factor = %g, want 0.5", f)
	}
	if f := diurnalFactor(0, 1); f != 2 {
		t.Errorf("night factor = %g, want 2", f)
	}
}

func TestDiurnalPoolShortensDaytimeIdle(t *testing.T) {
	// Monitor a diurnal machine and compare occupancies that begin in
	// working hours against those beginning at night: the daytime ones
	// must be shorter on average.
	m := testMachine("diurnal", 1024)
	m.DiurnalAmplitude = 2
	p, err := NewPool([]Machine{m}, 13)
	if err != nil {
		t.Fatal(err)
	}
	set, err := CollectTraces(p, MonitorConfig{Monitors: 1, Duration: MonthsSeconds(3)})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.Traces["diurnal"]
	if tr == nil || tr.Len() < 100 {
		t.Fatalf("too few records: %v", tr)
	}
	epoch := MonitorConfig{}.epochOrDefault()
	var daySum, nightSum float64
	var dayN, nightN int
	for _, r := range tr.Records {
		virtual := r.Start.Sub(epoch).Seconds()
		if workingHours(virtual) {
			daySum += r.Duration
			dayN++
		} else {
			nightSum += r.Duration
			nightN++
		}
	}
	if dayN < 10 || nightN < 10 {
		t.Fatalf("unbalanced samples: day %d, night %d", dayN, nightN)
	}
	dayMean := daySum / float64(dayN)
	nightMean := nightSum / float64(nightN)
	if dayMean >= nightMean {
		t.Errorf("daytime idle mean %g not below nighttime %g", dayMean, nightMean)
	}
}

func TestMonthsSeconds(t *testing.T) {
	if got := MonthsSeconds(1); got != 30*24*3600 {
		t.Errorf("1 month = %g s", got)
	}
}

// BenchmarkCollectTraces times pool synthesis with one monitor per
// machine: 80 synthetic machines over a 1-month campaign, the event
// loop and matchmaker that build every experiment's workload.
func BenchmarkCollectTraces(b *testing.B) {
	machines, err := SyntheticPool(SyntheticPoolConfig{Machines: 80, Seed: 2005})
	if err != nil {
		b.Fatal(err)
	}
	for range b.N {
		p, err := NewPool(machines, 2005)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := CollectTraces(p, MonitorConfig{Monitors: 80, Duration: MonthsSeconds(1)}); err != nil {
			b.Fatal(err)
		}
	}
}
