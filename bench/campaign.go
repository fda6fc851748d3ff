package main

import (
	"fmt"
	"math"
	"time"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/experiments"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// campaignSeed is the seed of the paper-scale reproduction
// (EXPERIMENTS.md). It is a fixed input, not drawn from --seed: the
// Table 4 efficiency moves by ±10 % from one pool seed to the next, and
// the benchmark's rules refuse a metric whose spread over ten seeds
// exceeds its bound, so a count that followed --seed could not be gated
// at the half percent the fixed points exist to catch. The reproduction
// at this seed is the workload; every run prints it beside --seed.
const campaignSeed = 2005

// simLiveTolerance bounds |live − simulated| efficiency per model
// (§5.3; the paper-scale run sits within 0.004).
const simLiveTolerance = 0.015

// campaignFigures is what one campaign pass measured. stages holds the
// wall seconds of each stage group in execution order.
type campaignFigures struct {
	wallS      float64
	efficiency float64 // Table 4, 2-phase hyperexponential AvgEfficiency
	wireMBph   float64 // same row, MBPerHour
	stages     []stageTime
	counts     loadCounts
	problems   []string // what each failed check saw
}

type stageTime struct {
	name string
	s    float64
}

// runCampaign is the campaign phase: the stage sequence of
// `ckpt-experiments -run all`, composed from the same experiments.*
// calls with the binary's default flags, every table rendered.
func runCampaign(w *workload, rec *recorder) (campaignFigures, error) {
	var f campaignFigures
	start := time.Now()
	// render times the Render* calls on a span of their own inside
	// whichever stage produced the tables, so stage times exclude them.
	var rendered int
	var renderS float64
	render := func(fn func() string) {
		sp := rec.start("experiments.render")
		t0 := time.Now()
		rendered += len(fn())
		renderS += time.Since(t0).Seconds()
		sp.end()
	}
	stage := func(name string, run func() error) error {
		sp := rec.start("experiments." + name)
		t0, r0 := time.Now(), renderS
		err := run()
		sp.end()
		f.stages = append(f.stages, stageTime{name, time.Since(t0).Seconds() - (renderS - r0)})
		if err != nil {
			return fmt.Errorf("campaign %s: %w", name, err)
		}
		return nil
	}
	// check counts one verified output.
	check := func(ok bool, format string, args ...any) {
		f.counts.attempted++
		if !ok {
			f.counts.failed++
			f.problems = append(f.problems, fmt.Sprintf(format, args...))
		}
	}
	// With the paper's sample counts an efficiency of exactly 0 or 1 is a
	// bug and live must track simulation; a smoke-sized campaign of a few
	// sessions per model can legitimately commit nothing.
	strict := w.samples >= 40
	unit := func(x float64) bool { return x >= 0 && x <= 1 && (!strict || (x > 0 && x < 1)) }

	var wl *experiments.Workload
	if err := stage("workload", func() (err error) {
		wl, err = experiments.NewWorkload(experiments.WorkloadConfig{
			Machines: w.machines, Months: w.months, Seed: campaignSeed,
		})
		return err
	}); err != nil {
		return f, err
	}

	var sweep *experiments.Sweep
	if err := stage("sweep", func() (err error) {
		sweep, err = experiments.RunSweep(wl, experiments.PaperCTimes, experiments.PaperCheckpointMB)
		return err
	}); err != nil {
		return f, err
	}

	if err := stage("tables", func() error {
		t1, err := sweep.Table1()
		if err != nil {
			return err
		}
		t3, err := sweep.Table3()
		if err != nil {
			return err
		}
		for _, m := range fit.Models {
			for _, c := range t1.Cells[m] {
				check(unit(c.CI.Mean), "Table 1 %v mean efficiency %g outside (0,1)", m, c.CI.Mean)
			}
		}
		render(func() string {
			return experiments.RenderFigure("Figure 3", sweep.CTimes, sweep.Figure3(), 3) +
				experiments.RenderTable(t1, 3) +
				experiments.RenderFigure("Figure 4", sweep.CTimes, sweep.Figure4(), 0) +
				experiments.RenderTable(t3, 0)
		})
		return nil
	}); err != nil {
		return f, err
	}

	if err := stage("table2", func() error {
		res, err := experiments.RunTable2(experiments.Table2Config{Seed: campaignSeed})
		if err != nil {
			return err
		}
		for _, c := range res.Cells {
			check(unit(c.Efficiency), "Table 2 %v efficiency %g outside (0,1)", c.Model, c.Efficiency)
		}
		render(func() string { return experiments.RenderTable2(res) })
		return nil
	}); err != nil {
		return f, err
	}

	liveRows := func(t *experiments.LiveTable, samples int) {
		for _, r := range t.Rows {
			check(r.Samples == samples && unit(r.AvgEfficiency),
				"%s: %v has %d samples (want %d), efficiency %g", t.Name, r.Model, r.Samples, samples, r.AvgEfficiency)
		}
	}
	if err := stage("live", func() error {
		t4, camp, err := experiments.RunLiveTable("Table 4: checkpoint manager on the campus network",
			experiments.LiveCampaignConfig{
				Workload: wl, Link: ckptnet.CampusLink(),
				SamplesPerModel: w.samples, Concurrency: 1, Seed: campaignSeed + 4,
			})
		if err != nil {
			return err
		}
		liveRows(t4, w.samples)
		for _, r := range t4.Rows {
			if r.Model == fit.ModelHyperexp2 {
				f.efficiency, f.wireMBph = r.AvgEfficiency, r.MBPerHour
			}
		}
		v, err := experiments.RunValidation(wl, camp)
		if err != nil {
			return err
		}
		for _, r := range v.Rows {
			check(r.Samples == w.samples && (!strict || math.Abs(r.Delta()) <= simLiveTolerance),
				"validation: %v live %.4f vs simulated %.4f over %d samples (want %d, within %g)",
				r.Model, r.LiveEfficiency, r.SimEfficiency, r.Samples, w.samples, simLiveTolerance)
		}
		t5, _, err := experiments.RunLiveTable("Table 5: checkpoint manager across the wide area",
			experiments.LiveCampaignConfig{
				Workload: wl, Link: ckptnet.WideAreaLink(),
				SamplesPerModel: w.samples / 2, Concurrency: 1, Seed: campaignSeed + 5,
			})
		if err != nil {
			return err
		}
		liveRows(t5, w.samples/2)
		render(func() string {
			return experiments.RenderLiveTable(t4) + experiments.RenderValidation(v) + experiments.RenderLiveTable(t5)
		})
		return nil
	}); err != nil {
		return f, err
	}

	if err := stage("studies", func() error {
		chaos, err := experiments.RunChaos(experiments.ChaosConfig{
			Workload: wl, Link: ckptnet.CampusLink(),
			Faults:  ckptnet.LinkFaultConfig{TearProb: 0.10, StallProb: 0.05, StallSec: 30, OutageProb: 0.10},
			Seed:    campaignSeed + 6,
			Predict: predict.Config{Precision: 0.85, Recall: 0.8, LeadSec: 240},
			Policy:  predict.PolicyMigrate,

			SamplesPerModel: w.studySamples,
		})
		if err != nil {
			return err
		}
		delta, err := experiments.RunDelta(experiments.DeltaConfig{
			Workload: wl, Link: ckptnet.CampusLink(), DirtyRate: 0.001, Seed: campaignSeed + 8,
			SamplesPerModel: w.studySamples,
		})
		if err != nil {
			return err
		}
		pred, err := experiments.RunPrediction(experiments.PredictionConfig{Seed: campaignSeed + 7})
		if err != nil {
			return err
		}
		sens, err := experiments.RunSensitivity(experiments.SensitivityConfig{Seed: campaignSeed})
		if err != nil {
			return err
		}
		cens, err := experiments.RunCensoring(experiments.CensoringConfig{Machines: w.machines / 2, Seed: campaignSeed})
		if err != nil {
			return err
		}
		var rerr error
		render(func() string {
			var p string
			p, rerr = experiments.RenderPrediction(pred)
			return experiments.RenderChaos(chaos) + experiments.RenderDelta(delta) + p +
				experiments.RenderSensitivity(sens) + experiments.RenderCensoring(cens)
		})
		return rerr
	}); err != nil {
		return f, err
	}

	f.wallS = time.Since(start).Seconds()
	f.stages = append(f.stages, stageTime{"render", renderS})
	check(rendered > 0 && unit(f.efficiency) && f.wireMBph > 0,
		"rendered %d bytes, Table 4 2-phase row efficiency %g, %g MB/h", rendered, f.efficiency, f.wireMBph)
	return f, nil
}
