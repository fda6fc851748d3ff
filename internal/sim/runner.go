package sim

import (
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
)

// MachineRun is the outcome of simulating one machine under one model.
type MachineRun struct {
	Model    fit.Model
	Result   Result
	Schedule *markov.Schedule
}

// RunModel fits the given model family to the training durations,
// builds the checkpoint schedule the system would use on that machine
// (anchored at age R, the machine age when recovery completes and the
// first work interval begins), and replays the experimental durations
// through it. This is exactly the paper's per-machine simulation
// protocol: "use each training set to calculate MLE parameters … then
// simulate a job" over the remaining values. With cfg.Trace set, the
// schedule build traces on the replay's own lane (cfg.TracePid, tid 0).
func RunModel(train, test []float64, model fit.Model, cfg Config) (MachineRun, error) {
	d, err := fit.Fit(model, train)
	if err != nil {
		return MachineRun{}, fmt.Errorf("sim: fit %v: %w", model, err)
	}
	return RunFitted(d, model, test, cfg, markov.ScheduleOptions{Trace: cfg.Trace, TracePid: cfg.TracePid})
}

// RunFitted is RunModel with the fitting stage factored out: it builds
// the schedule and replays the experimental durations for an
// already-estimated availability distribution. The fit-once sweep in
// internal/experiments uses it to share one fit.Cache entry across the
// whole checkpoint-duration axis; the result is identical to RunModel
// on the same fit. build configures the schedule build — chiefly its
// trace lane, which is the caller's to name — and its Horizon is
// raised to cover the longest experimental period.
func RunFitted(d dist.Distribution, model fit.Model, test []float64, cfg Config, build markov.ScheduleOptions) (MachineRun, error) {
	m := markov.Model{Avail: d, Costs: cfg.Costs}

	// Plan at least as far as the longest availability period so the
	// schedule never falls back to extending its last interval within
	// observed uptimes.
	maxAvail := 0.0
	for _, a := range test {
		if a > maxAvail {
			maxAvail = a
		}
	}
	build.Horizon = max(build.Horizon, maxAvail+cfg.Costs.R+cfg.Costs.C+1)
	sched, err := m.BuildSchedule(cfg.Costs.R, build)
	if err != nil {
		return MachineRun{}, fmt.Errorf("sim: schedule %v: %w", model, err)
	}
	res, err := Run(test, sched, cfg)
	if err != nil {
		return MachineRun{}, err
	}
	return MachineRun{Model: model, Result: res, Schedule: sched}, nil
}
