package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// Stages names the paper's evaluation stages in the order a Plan runs
// and renders them. ckpt-experiments -run accepts any one of them, or
// "all".
var Stages = []string{
	"figure3", "table1", "figure4", "table3", // one trace-replay sweep
	"table2",
	"table4", "validate", // one campus campaign
	"chaos", "delta", "predict", "sensitivity", "censoring",
	"table5",
}

// SelectStages resolves a stage name, case-insensitively: "all"
// selects every stage, any name in Stages selects that stage alone.
func SelectStages(name string) ([]string, error) {
	name = strings.ToLower(name)
	if name == "all" {
		return slices.Clone(Stages), nil
	}
	if slices.Contains(Stages, name) {
		return []string{name}, nil
	}
	return nil, fmt.Errorf("unknown stage %q (accepted: all, %s)", name, strings.Join(Stages, ", "))
}

// Plan is one run of the paper's evaluation: pool → traces → fits →
// schedules → simulated and live runs → Tables 1–5, plus the extension
// studies. Start from DefaultPlan; every size must be positive.
type Plan struct {
	// Machines, Months and Seed size and seed the synthetic pool and its
	// monitor campaign. The censoring study runs max(1, Machines/2)
	// machines.
	Machines int
	Months   float64
	Seed     int64
	// Samples is the live sessions per model of Table 4; Table 5 runs
	// max(1, Samples/2), the paper's WAN table having about half.
	Samples int
	// Concurrency is the test processes in flight in Tables 4 and 5.
	Concurrency int
	// Stages selects what runs and renders (see SelectStages).
	Stages []string
	// Tracer, when set, records every live campaign, prediction-grid run
	// and schedule build. Live campaigns and the prediction grid take
	// TraceCampaignStride-wide lane blocks in stage order, counting only
	// the selected stages; schedule builds take the lanes buildLanes
	// names.
	Tracer *obs.Tracer
	// Faults, Predict and Policy configure the chaos study; DirtyRate
	// the delta study.
	Faults    ckptnet.LinkFaultConfig
	Predict   predict.Config
	Policy    predict.Policy
	DirtyRate float64
}

// DefaultPlan is the paper-scale evaluation with every stage selected.
func DefaultPlan() Plan {
	return Plan{
		Machines: 80, Months: 18, Seed: 2005, Samples: 85, Concurrency: 1,
		Stages:    slices.Clone(Stages),
		Faults:    defaultFaults,
		Predict:   defaultPredictor,
		Policy:    predict.PolicyMigrate,
		DirtyRate: defaultDirtyRate,
	}
}

// Report is what a Plan produced: the result of each stage that ran, a
// selected one or a prerequisite of one (validate runs Table 4's
// campaign), nil for the rest.
type Report struct {
	Plan        Plan
	Workload    *Workload
	Sweep       *Sweep // Figures 3/4, Tables 1/3
	Table2      *Table2Result
	Table4      *LiveTable
	Validation  *ValidationResult
	Chaos       *ChaosResult
	Delta       *DeltaResult
	Prediction  *PredictionResult
	Sensitivity *SensitivityResult
	Censoring   *CensoringResult
	Table5      *LiveTable

	// Wall seconds for Render's "#" progress lines.
	workloadSec, sweepSec, predictionSec float64
}

// buildLaneBase puts schedule-build lanes in a band above every live
// campaign's (at most eight TraceCampaignStride-wide blocks).
const buildLaneBase = 1 << 20

// buildLanes names the trace lanes of one stage's schedule builds, so
// that concurrent builds never share a lane and the export is the
// same at any GOMAXPROCS. The zero value traces nothing.
type buildLanes struct {
	tr   *obs.Tracer
	base uint64
}

// buildLanes gives stage a TraceCampaignStride-wide block of build
// lanes at its index in Stages, so a stage's builds trace on the same
// lanes whether it runs alone or in "all".
func (p Plan) buildLanes(stage string) buildLanes {
	return buildLanes{p.Tracer, buildLaneBase + uint64(slices.Index(Stages, stage))*TraceCampaignStride}
}

// opts returns the build options of the stage's i-th build (0-based):
// lane base+i+1, with attrs on the build span.
func (l buildLanes) opts(i int, attrs ...obs.Attr) markov.ScheduleOptions {
	if l.tr == nil {
		return markov.ScheduleOptions{}
	}
	return markov.ScheduleOptions{Trace: l.tr, TracePid: l.base + uint64(i) + 1, TraceAttrs: attrs}
}

func (p Plan) want(names ...string) bool {
	return slices.ContainsFunc(names, func(n string) bool { return slices.Contains(p.Stages, n) })
}

// Run runs the selected stages and their prerequisites.
func (p Plan) Run() (*Report, error) {
	if p.Machines < 1 || p.Samples < 1 || p.Concurrency < 1 || !(p.Months > 0) {
		return nil, fmt.Errorf("experiments: plan sizes must be positive (machines %d, months %g, samples %d, concurrency %d)",
			p.Machines, p.Months, p.Samples, p.Concurrency)
	}
	r := &Report{Plan: p}
	var nextLane uint64
	lanes := func(campaigns uint64) uint64 {
		b := nextLane
		nextLane += campaigns * TraceCampaignStride
		return b
	}
	since := func(t time.Time) float64 { return time.Since(t).Seconds() }
	var err error
	if p.want("figure3", "table1", "figure4", "table3", "table4", "validate", "chaos", "delta", "table5") {
		start := time.Now()
		r.Workload, err = NewWorkload(WorkloadConfig{Machines: p.Machines, Months: p.Months, Seed: p.Seed})
		r.workloadSec = since(start)
	}
	if err == nil && p.want("figure3", "table1", "figure4", "table3") {
		start := time.Now()
		r.Sweep, err = runSweep(r.Workload, PaperCTimes, PaperCheckpointMB, p.buildLanes("figure3"))
		r.sweepSec = since(start)
	}
	if err == nil && p.want("table2") {
		r.Table2, err = RunTable2(Table2Config{Seed: p.Seed, lanes: p.buildLanes("table2")})
	}
	if err == nil && p.want("table4", "validate") {
		var camp *live.Campaign
		r.Table4, camp, err = RunLiveTable("Table 4: checkpoint manager on the campus network", LiveCampaignConfig{
			Workload: r.Workload, Link: ckptnet.CampusLink(), SamplesPerModel: p.Samples,
			Concurrency: p.Concurrency, Seed: p.Seed + 4, Tracer: p.Tracer, TracePidBase: lanes(1),
		})
		if err == nil && p.want("validate") {
			r.Validation, err = RunValidation(r.Workload, camp)
		}
	}
	if err == nil && p.want("chaos") {
		r.Chaos, err = RunChaos(ChaosConfig{
			Workload: r.Workload, Link: ckptnet.CampusLink(), Faults: p.Faults, Seed: p.Seed + 6,
			Tracer: p.Tracer, TracePidBase: lanes(3), Predict: p.Predict, Policy: p.Policy,
		})
	}
	if err == nil && p.want("delta") {
		r.Delta, err = RunDelta(DeltaConfig{
			Workload: r.Workload, Link: ckptnet.CampusLink(), DirtyRate: p.DirtyRate, Seed: p.Seed + 8,
			Tracer: p.Tracer, TracePidBase: lanes(3),
		})
	}
	if err == nil && p.want("predict") {
		start := time.Now()
		r.Prediction, err = RunPrediction(PredictionConfig{Seed: p.Seed + 7, Tracer: p.Tracer, pidBase: lanes(1)})
		r.predictionSec = since(start)
	}
	if err == nil && p.want("sensitivity") {
		r.Sensitivity, err = RunSensitivity(SensitivityConfig{Seed: p.Seed, lanes: p.buildLanes("sensitivity")})
	}
	if err == nil && p.want("censoring") {
		r.Censoring, err = RunCensoring(CensoringConfig{Machines: max(1, p.Machines/2), Seed: p.Seed, lanes: p.buildLanes("censoring")})
	}
	if err == nil && p.want("table5") {
		r.Table5, _, err = RunLiveTable("Table 5: checkpoint manager across the wide area", LiveCampaignConfig{
			Workload: r.Workload, Link: ckptnet.WideAreaLink(), SamplesPerModel: max(1, p.Samples/2),
			Concurrency: p.Concurrency, Seed: p.Seed + 5, Tracer: p.Tracer, TracePidBase: lanes(1),
		})
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Render writes the selected stages in the paper's layouts, in stage
// order, with "#" progress lines carrying sizes and wall times.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	if r.Workload != nil {
		fmt.Fprintf(&b, "# building workload: %d machines, %.3g-month campaign (seed %d)\n", r.Plan.Machines, r.Plan.Months, r.Plan.Seed)
		fmt.Fprintf(&b, "# %d machines passed the record filter (%.1fs)\n\n", len(r.Workload.Data), r.workloadSec)
	}
	if r.Sweep != nil {
		fmt.Fprintf(&b, "# sweep complete (%.1fs)\n\n", r.sweepSec)
	}
	for _, name := range Stages {
		if !r.Plan.want(name) {
			continue
		}
		if name == "predict" {
			fmt.Fprintf(&b, "# prediction sweep complete (%.1fs)\n\n", r.predictionSec)
		}
		s, err := r.section(name)
		if err != nil {
			return err
		}
		b.WriteString(s)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// section renders one stage's output.
func (r *Report) section(name string) (string, error) {
	var s string
	switch name {
	case "figure3":
		s = RenderFigure("Figure 3: mean machine utilization vs checkpoint duration", r.Sweep.CTimes, r.Sweep.Figure3(), 3)
	case "table1", "table3":
		table, decimals := r.Sweep.Table1, 3
		if name == "table3" {
			table, decimals = r.Sweep.Table3, 0
		}
		t, err := table()
		if err != nil {
			return "", err
		}
		s = RenderTable(t, decimals)
	case "figure4":
		s = RenderFigure("Figure 4: mean network load (MB, 500 MB checkpoints) vs checkpoint duration", r.Sweep.CTimes, r.Sweep.Figure4(), 0)
	case "table2":
		s = RenderTable2(r.Table2)
	case "table4":
		s = RenderLiveTable(r.Table4)
	case "validate":
		s = RenderValidation(r.Validation)
	case "chaos":
		s = RenderChaos(r.Chaos)
	case "delta":
		s = RenderDelta(r.Delta)
	case "predict":
		var err error
		if s, err = RenderPrediction(r.Prediction); err != nil {
			return "", err
		}
	case "sensitivity":
		s = RenderSensitivity(r.Sensitivity)
	case "censoring":
		s = RenderCensoring(r.Censoring)
	case "table5":
		s = RenderLiveTable(r.Table5)
	}
	return s + "\n", nil
}
