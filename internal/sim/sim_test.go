package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

func cfg(c float64) Config {
	return Config{
		Costs:        markov.Costs{C: c, R: c, L: c},
		CheckpointMB: 500,
	}
}

func almostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	return diff <= tol || diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestRunHandArithmetic(t *testing.T) {
	// One availability of 1000 s, C=R=100, fixed T=200.
	// recovery: 100 (500 MB). Then cycles of 300 s (200 work+100 ckpt):
	// 3 full cycles = 900 s, 600 s useful, 3 checkpoints (1500 MB).
	// 0 s remain. Total useful 600/1000.
	res, err := Run([]float64{1000}, FixedInterval(200), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsefulWork != 600 || res.Commits != 3 {
		t.Errorf("useful=%g commits=%d", res.UsefulWork, res.Commits)
	}
	if res.RecoveryTime != 100 || res.Recoveries != 1 {
		t.Errorf("recovery=%g n=%d", res.RecoveryTime, res.Recoveries)
	}
	if res.MBTransferred != 2000 {
		t.Errorf("MB = %g, want 2000", res.MBTransferred)
	}
	if got := res.Efficiency(); got != 0.6 {
		t.Errorf("efficiency = %g", got)
	}
}

func TestRunEvictionDuringWork(t *testing.T) {
	// Availability 450: recovery 100, one full cycle 300 (200 useful),
	// then 50 s of work lost.
	res, err := Run([]float64{450}, FixedInterval(200), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsefulWork != 200 || res.LostWork != 50 || res.FailedIntervals != 1 {
		t.Errorf("useful=%g lost=%g failed=%d", res.UsefulWork, res.LostWork, res.FailedIntervals)
	}
	// MB: recovery 500 + 1 checkpoint 500.
	if res.MBTransferred != 1000 {
		t.Errorf("MB = %g", res.MBTransferred)
	}
}

func TestRunEvictionDuringCheckpoint(t *testing.T) {
	// Availability 650: recovery 100, cycle 300 commits (200 useful),
	// then 200 work + 50 s into the checkpoint -> evicted. The work is
	// lost, the partial checkpoint moved 500·(50/100) = 250 MB.
	res, err := Run([]float64{650}, FixedInterval(200), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsefulWork != 200 || res.LostWork != 200 || res.FailedCheckpoints != 1 {
		t.Errorf("useful=%g lost=%g failedCkpt=%d", res.UsefulWork, res.LostWork, res.FailedCheckpoints)
	}
	if res.MBTransferred != 500+500+250 {
		t.Errorf("MB = %g, want 1250", res.MBTransferred)
	}
	if res.CheckpointTime != 150 {
		t.Errorf("checkpoint time = %g, want 150", res.CheckpointTime)
	}
}

func TestRunEvictionDuringRecovery(t *testing.T) {
	// Availability 40 < R=100: recovery fails, 200 MB prorated.
	res, err := Run([]float64{40}, FixedInterval(200), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRecoveries != 1 || res.Recoveries != 0 {
		t.Errorf("recoveries %d/%d", res.Recoveries, res.FailedRecoveries)
	}
	if res.MBTransferred != 200 {
		t.Errorf("MB = %g, want 200", res.MBTransferred)
	}
	if res.UsefulWork != 0 || res.Efficiency() != 0 {
		t.Error("no work should commit")
	}
}

func TestRunExactBoundaries(t *testing.T) {
	// Availability exactly R: recovery completes, nothing else runs,
	// and no failed interval is recorded.
	res, err := Run([]float64{100}, FixedInterval(200), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || res.FailedIntervals != 0 || res.LostWork != 0 {
		t.Errorf("%+v", res)
	}
	// Availability exactly R+T: the work finishes but no checkpoint
	// time remains — the interval is lost.
	res, err = Run([]float64{300}, FixedInterval(200), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsefulWork != 0 || res.LostWork != 200 || res.FailedIntervals != 1 {
		t.Errorf("%+v", res)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, FixedInterval(10), cfg(1)); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := Run([]float64{10}, nil, cfg(1)); err == nil {
		t.Error("nil planner should error")
	}
	if _, err := Run([]float64{-3}, FixedInterval(10), cfg(1)); err == nil {
		t.Error("negative availability should error")
	}
	bad := PlannerFunc(func(float64) (float64, bool) { return 0, false })
	if _, err := Run([]float64{500}, bad, cfg(1)); err == nil {
		t.Error("failing planner should error")
	}
	c := cfg(1)
	c.CheckpointMB = -1
	if _, err := Run([]float64{10}, FixedInterval(5), c); err == nil {
		t.Error("negative size should error")
	}
}

func TestRunTimeConservation(t *testing.T) {
	// Property: every simulated second is attributed to exactly one
	// bucket — useful, lost, recovery, or checkpoint.
	rng := rand.New(rand.NewSource(21))
	w := dist.NewWeibull(0.43, 3409)
	f := func(seed int64) bool {
		n := 1 + int(seed%40+40)%40
		avail := make([]float64, n)
		for i := range avail {
			avail[i] = w.Rand(rng)
		}
		res, err := Run(avail, FixedInterval(700), cfg(100))
		if err != nil {
			return false
		}
		sum := res.UsefulWork + res.LostWork + res.RecoveryTime + res.CheckpointTime
		return almostEqual(sum, res.TotalTime, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunBandwidthLowerBound(t *testing.T) {
	// Property: network load is at least one checkpoint per commit and
	// one recovery per successful recovery.
	rng := rand.New(rand.NewSource(22))
	w := dist.NewWeibull(0.43, 3409)
	avail := make([]float64, 200)
	for i := range avail {
		avail[i] = w.Rand(rng)
	}
	res, err := Run(avail, FixedInterval(900), cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	min := float64(res.Commits+res.Recoveries) * 500
	if res.MBTransferred < min {
		t.Errorf("MB %g below lower bound %g", res.MBTransferred, min)
	}
	if res.Efficiency() <= 0 || res.Efficiency() >= 1 {
		t.Errorf("efficiency = %g", res.Efficiency())
	}
}

func TestMBPerHour(t *testing.T) {
	r := Result{TotalTime: 7200, MBTransferred: 1000}
	if got := r.MBPerHour(); got != 500 {
		t.Errorf("MB/hour = %g", got)
	}
	var zero Result
	if zero.MBPerHour() != 0 || zero.Efficiency() != 0 {
		t.Error("zero result should report zeros")
	}
}

func TestRunModelEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := dist.NewWeibull(0.43, 3409)
	all := make([]float64, 250)
	for i := range all {
		all[i] = w.Rand(rng)
	}
	train, test := all[:25], all[25:]
	for _, m := range fit.Models {
		run, err := RunModel(train, test, m, cfg(100))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		eff := run.Result.Efficiency()
		if eff <= 0.2 || eff >= 0.95 {
			t.Errorf("%v: implausible efficiency %g", m, eff)
		}
		if run.Schedule.Len() == 0 {
			t.Errorf("%v: empty schedule", m)
		}
		if run.Schedule.Ages[0] != 100 {
			t.Errorf("%v: schedule anchored at %g, want R=100", m, run.Schedule.Ages[0])
		}
	}
}

func TestRunModelHeavyTailUsesFewerCheckpoints(t *testing.T) {
	// The paper's network-overhead headline: on heavy-tailed traces a
	// hyperexponential schedule transfers substantially less data than
	// an exponential one, at comparable efficiency.
	rng := rand.New(rand.NewSource(33))
	w := dist.NewWeibull(0.43, 3409)
	all := make([]float64, 600)
	for i := range all {
		all[i] = w.Rand(rng)
	}
	train, test := all[:25], all[25:]
	c := cfg(500) // large checkpoints make the contrast sharp
	exp, err := RunModel(train, test, fit.ModelExponential, c)
	if err != nil {
		t.Fatal(err)
	}
	hyp, err := RunModel(train, test, fit.ModelHyperexp2, c)
	if err != nil {
		t.Fatal(err)
	}
	if hyp.Result.MBTransferred >= exp.Result.MBTransferred {
		t.Errorf("hyperexp2 moved %g MB, exponential %g MB — expected savings",
			hyp.Result.MBTransferred, exp.Result.MBTransferred)
	}
	// Efficiencies stay in the same ballpark (within 15 points).
	de := math.Abs(hyp.Result.Efficiency() - exp.Result.Efficiency())
	if de > 0.15 {
		t.Errorf("efficiency gap %g too large (exp %g, hyp %g)",
			de, exp.Result.Efficiency(), hyp.Result.Efficiency())
	}
}

func TestExpectedEfficiencyAgainstSimulation(t *testing.T) {
	// The analytic steady-state efficiency should be loosely
	// predictive of the trace-driven estimate when the trace really
	// does follow the fitted family.
	rng := rand.New(rand.NewSource(35))
	e := dist.NewExponential(1.0 / 9000)
	all := make([]float64, 2000)
	for i := range all {
		all[i] = e.Rand(rng)
	}
	train, test := all[:200], all[200:]
	c := cfg(100)
	// §5.1: "the expected efficiency is just the reciprocal of the
	// quantity Γ … evaluated at T_opt", here for a fresh resource.
	d, err := fit.Fit(fit.ModelExponential, train)
	if err != nil {
		t.Fatal(err)
	}
	_, ratio, err := markov.Model{Avail: d, Costs: c.Costs}.Topt(c.Costs.R, markov.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / ratio
	run, err := RunModel(train, test, fit.ModelExponential, c)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(want, run.Result.Efficiency(), 0.1) {
		t.Errorf("analytic %g vs simulated %g", want, run.Result.Efficiency())
	}
}

// TestRunTrace pins the simulator's trace contract: spans on the
// virtual clock, one period span per availability duration, transfer
// spans inside it, and no behavioral drift when tracing is attached.
func TestRunTrace(t *testing.T) {
	avail := []float64{1000, 45, 400}
	c := cfg(60)
	plain, err := Run(avail, FixedInterval(200), c)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true})
	c.Trace = tr
	c.TracePid = 7
	traced, err := Run(avail, FixedInterval(200), c)
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Fatalf("tracing changed the result:\nplain:  %+v\ntraced: %+v", plain, traced)
	}

	var periods, ckpts, recs, evicted int
	for _, ev := range tr.Events() {
		if ev.Pid != 7 {
			t.Fatalf("event on pid %d, want 7: %+v", ev.Pid, ev)
		}
		switch ev.Name {
		case "period":
			periods++
		case "transfer.checkpoint":
			ckpts++
		case "transfer.recovery":
			recs++
		case "evicted":
			evicted++
		}
	}
	if periods != len(avail) {
		t.Errorf("period spans = %d, want %d", periods, len(avail))
	}
	if ckpts != traced.Commits+traced.FailedCheckpoints {
		t.Errorf("checkpoint spans = %d, want %d", ckpts, traced.Commits+traced.FailedCheckpoints)
	}
	if recs != traced.Recoveries+traced.FailedRecoveries {
		t.Errorf("recovery spans = %d, want %d", recs, traced.Recoveries+traced.FailedRecoveries)
	}
	if evicted == 0 {
		t.Error("no evicted instants recorded")
	}

	// The trace rides the virtual clock: the last event must not end
	// past the cumulative availability time.
	total := 0.0
	for _, a := range avail {
		total += a
	}
	for _, ev := range tr.Events() {
		if ev.Ts+ev.Dur > total+1e-9 {
			t.Errorf("event past end of virtual time: %+v (total %g)", ev, total)
		}
	}
}
