// Command ckpt-experiments regenerates the paper's evaluation: every
// table and figure of "Minimizing the Network Overhead of
// Checkpointing in Cycle-harvesting Cluster Environments" (CLUSTER
// 2005), over a simulated Condor pool.
//
// Usage:
//
//	ckpt-experiments [-run all|table1|table2|table3|table4|table5|figure3|figure4|validate|chaos|predict|delta] \
//	    [-machines 80] [-months 18] [-samples 85] [-seed 2005] [-trace out.json] \
//	    [-chaos-tear 0.10] [-chaos-stall 0.05] [-chaos-stall-sec 30] [-chaos-outage 0.10] \
//	    [-predict-precision 0.85] [-predict-recall 0.8] [-predict-lead 240] [-policy migrate] \
//	    [-delta-dirty-rate 0.001]
//
// Results print to stdout in the paper's layouts. -trace writes a
// Chrome-trace (Perfetto-loadable) timeline of every live-campaign
// session and every schedule build; a .jsonl suffix selects the
// compact line format that ckpt-report timeline replays. Flag values
// are validated up front: contradictory settings (a negative drop
// probability, a zero machine count) exit non-zero with a per-flag
// error instead of being silently clamped.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/experiments"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// options collects the parsed, validated flag set.
type options struct {
	which       string
	machines    int
	months      float64
	samples     int
	seed        int64
	csvDir      string
	concurrency int
	tracePath   string
	faults      ckptnet.LinkFaultConfig
	predict     predict.Config
	policy      predict.Policy
	dirtyRate   float64
}

func main() {
	run := flag.String("run", "all", "experiment to run: all, table1, table2, table3, table4, table5, figure3, figure4, validate, censoring, sensitivity, chaos, predict, delta")
	machines := flag.Int("machines", 80, "synthetic pool size")
	months := flag.Float64("months", 18, "monitor campaign length (30-day months)")
	samples := flag.Int("samples", 85, "live-experiment samples per model")
	seed := flag.Int64("seed", 2005, "workload seed")
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	concurrency := flag.Int("concurrency", 1, "concurrent live-experiment test processes (paper total times suggest ~4)")
	tracePath := flag.String("trace", "", "write an execution timeline to this file (.json Chrome trace, .jsonl compact)")
	chaos := flag.Bool("chaos", false, "shorthand for -run chaos: one live campaign under fault injection vs its clean and predicted twins")
	chaosTear := flag.Float64("chaos-tear", 0.10, "chaos: probability a transfer tears mid-flight")
	chaosStall := flag.Float64("chaos-stall", 0.05, "chaos: probability a transfer stalls")
	chaosStallSec := flag.Float64("chaos-stall-sec", 30, "chaos: stall duration, seconds")
	chaosOutage := flag.Float64("chaos-outage", 0.10, "chaos: probability the manager is unreachable at transfer start")
	predPrecision := flag.Float64("predict-precision", 0.85, "fault predictor precision (fraction of alarms that are true)")
	predRecall := flag.Float64("predict-recall", 0.8, "fault predictor recall (fraction of failures predicted)")
	predLead := flag.Float64("predict-lead", 240, "fault predictor lead time before failure, seconds")
	dirtyRate := flag.Float64("delta-dirty-rate", 0.001, "delta: per-chunk dirtying rate, 1/seconds")
	policy := flag.String("policy", "migrate", "prediction policy for the chaos experiment: reactive, proactive, migrate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	statsDump := flag.Bool("stats", false, "print the final metrics-registry snapshot as JSON on stderr")
	flag.Parse()

	opts := options{
		which:       *run,
		machines:    *machines,
		months:      *months,
		samples:     *samples,
		seed:        *seed,
		csvDir:      *csvDir,
		concurrency: *concurrency,
		tracePath:   *tracePath,
		faults: ckptnet.LinkFaultConfig{
			TearProb:   *chaosTear,
			StallProb:  *chaosStall,
			StallSec:   *chaosStallSec,
			OutageProb: *chaosOutage,
		},
		predict: predict.Config{
			Precision: *predPrecision,
			Recall:    *predRecall,
			LeadSec:   *predLead,
		},
		dirtyRate: *dirtyRate,
	}
	if *chaos {
		opts.which = "chaos"
	}

	var check cliflag.Checker
	check.PositiveInt("-machines", opts.machines)
	check.Positive("-months", opts.months)
	check.PositiveInt("-samples", opts.samples)
	check.PositiveInt("-concurrency", opts.concurrency)
	check.Probability("-chaos-tear", opts.faults.TearProb)
	check.Probability("-chaos-stall", opts.faults.StallProb)
	check.NonNegative("-chaos-stall-sec", opts.faults.StallSec)
	check.Probability("-chaos-outage", opts.faults.OutageProb)
	check.Check("-predict-precision/-predict-recall/-predict-lead", opts.predict.Validate())
	check.Positive("-delta-dirty-rate", opts.dirtyRate)
	pol, perr := predict.ParsePolicy(*policy)
	check.Check("-policy", perr)
	opts.policy = pol
	if err := check.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-experiments: invalid flags:")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	err := cliflag.Diagnose("ckpt-experiments", *cpuprofile, *memprofile, *statsDump,
		[]func(*obs.Registry){fit.Instrument, markov.Instrument, parallel.Instrument, predict.Instrument},
		func() error {
			return cliflag.Traced(opts.tracePath, func(tracer *obs.Tracer) error { return runExperiments(opts, tracer) })
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-experiments:", err)
		os.Exit(1)
	}
}

// runExperiments runs the selected experiments. One tracer (nil = off)
// serves the whole invocation: schedule builds claim lanes in markov's
// reserved band, and each live campaign gets its own
// TraceCampaignStride-wide block of sample lanes.
func runExperiments(opts options, tracer *obs.Tracer) error {
	which := strings.ToLower(opts.which)
	machines, months, samples := opts.machines, opts.months, opts.samples
	seed, csvDir, concurrency := opts.seed, opts.csvDir, opts.concurrency
	var nextTraceBase uint64
	traceBase := func(slots uint64) uint64 {
		b := nextTraceBase
		nextTraceBase += slots * experiments.TraceCampaignStride
		return b
	}
	want := func(names ...string) bool {
		if which == "all" {
			return true
		}
		for _, n := range names {
			if which == n {
				return true
			}
		}
		return false
	}

	needWorkload := want("table1", "table3", "figure3", "figure4", "table4", "table5", "validate", "chaos", "delta")
	var w *experiments.Workload
	if needWorkload {
		start := time.Now()
		fmt.Printf("# building workload: %d machines, %.3g-month campaign (seed %d)\n", machines, months, seed)
		var err error
		w, err = experiments.NewWorkload(experiments.WorkloadConfig{
			Machines: machines,
			Months:   months,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("# %d machines passed the record filter (%.1fs)\n\n", len(w.Data), time.Since(start).Seconds())
	}

	if want("table1", "table3", "figure3", "figure4") {
		start := time.Now()
		sweep, err := experiments.RunSweep(w, experiments.PaperCTimes, experiments.PaperCheckpointMB)
		if err != nil {
			return err
		}
		fmt.Printf("# sweep complete (%.1fs)\n\n", time.Since(start).Seconds())
		if want("figure3") {
			fmt.Println(experiments.RenderFigure("Figure 3: mean machine utilization vs checkpoint duration",
				sweep.CTimes, sweep.Figure3(), 3))
			if err := writeCSV(csvDir, "figure3.csv",
				experiments.FigureCSV(sweep.CTimes, sweep.Figure3())); err != nil {
				return err
			}
		}
		if want("table1") {
			t1, err := sweep.Table1()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable(t1, 3))
		}
		if want("figure4") {
			fmt.Println(experiments.RenderFigure("Figure 4: mean network load (MB, 500 MB checkpoints) vs checkpoint duration",
				sweep.CTimes, sweep.Figure4(), 0))
			if err := writeCSV(csvDir, "figure4.csv",
				experiments.FigureCSV(sweep.CTimes, sweep.Figure4())); err != nil {
				return err
			}
		}
		if want("table3") {
			t3, err := sweep.Table3()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable(t3, 0))
		}
	}

	if want("table2") {
		res, err := experiments.RunTable2(experiments.Table2Config{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable2(res))
	}

	if want("table4", "validate") {
		t4, camp, err := experiments.RunLiveTable("Table 4: checkpoint manager on the campus network",
			experiments.LiveCampaignConfig{
				Workload:        w,
				Link:            ckptnet.CampusLink(),
				SamplesPerModel: samples,
				Concurrency:     concurrency,
				Seed:            seed + 4,
				Tracer:          tracer,
				TracePidBase:    traceBase(1),
			})
		if err != nil {
			return err
		}
		if want("table4") {
			fmt.Println(experiments.RenderLiveTable(t4))
		}
		if want("validate") {
			v, err := experiments.RunValidation(w, camp)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderValidation(v))
		}
	}

	if want("chaos") {
		res, err := experiments.RunChaos(experiments.ChaosConfig{
			Workload:     w,
			Link:         ckptnet.CampusLink(),
			Faults:       opts.faults,
			Seed:         seed + 6,
			Tracer:       tracer,
			TracePidBase: traceBase(3),
			Predict:      opts.predict,
			Policy:       opts.policy,
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderChaos(res))
	}

	if want("delta") {
		res, err := experiments.RunDelta(experiments.DeltaConfig{
			Workload:     w,
			Link:         ckptnet.CampusLink(),
			DirtyRate:    opts.dirtyRate,
			Seed:         seed + 8,
			Tracer:       tracer,
			TracePidBase: traceBase(3),
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderDelta(res))
	}

	if want("predict") {
		start := time.Now()
		res, err := experiments.RunPrediction(experiments.PredictionConfig{
			Seed:   seed + 7,
			Tracer: tracer,
		})
		if err != nil {
			return err
		}
		fmt.Printf("# prediction sweep complete (%.1fs)\n\n", time.Since(start).Seconds())
		out, err := experiments.RenderPrediction(res)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}

	if want("sensitivity") {
		res, err := experiments.RunSensitivity(experiments.SensitivityConfig{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSensitivity(res))
	}

	if want("censoring") {
		res, err := experiments.RunCensoring(experiments.CensoringConfig{
			Machines: machines / 2,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderCensoring(res))
	}

	if want("table5") {
		t5, _, err := experiments.RunLiveTable("Table 5: checkpoint manager across the wide area",
			experiments.LiveCampaignConfig{
				Workload:        w,
				Link:            ckptnet.WideAreaLink(),
				SamplesPerModel: samples / 2, // the paper's WAN table has ~half the samples
				Concurrency:     concurrency,
				Seed:            seed + 5,
				Tracer:          tracer,
				TracePidBase:    traceBase(1),
			})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderLiveTable(t5))
	}
	return nil
}

// writeCSV writes content into dir/name, creating dir; empty dir means
// CSV export is off.
func writeCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n\n", path)
	return nil
}
