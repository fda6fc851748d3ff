// Command ckpt-experiments regenerates the paper's evaluation: every
// table and figure of "Minimizing the Network Overhead of
// Checkpointing in Cycle-harvesting Cluster Environments" (CLUSTER
// 2005), over a simulated Condor pool.
//
// Usage:
//
//	ckpt-experiments [-run all|figure3|table1|figure4|table3|table2|table4|validate|chaos|delta|predict|sensitivity|censoring|table5] \
//	    [-machines 80] [-months 18] [-samples 85] [-seed 2005] [-concurrency 1] [-csv dir] [-trace out.json] \
//	    [-chaos-tear 0.10] [-chaos-stall 0.05] [-chaos-stall-sec 30] [-chaos-outage 0.10] \
//	    [-predict-precision 0.85] [-predict-recall 0.8] [-predict-lead 240] [-policy migrate] \
//	    [-delta-dirty-rate 0.001] [-stats] [-cpuprofile f] [-memprofile f]
//
// The stages, their prerequisites, seeds and study settings are
// experiments.Plan's; this command only fills one in from its flags.
// Results print to stdout in the paper's layouts. -trace writes a
// Chrome-trace (Perfetto-loadable) timeline of every live-campaign
// session and every schedule build; a .jsonl suffix selects the
// compact line format that ckpt-report timeline replays. Flag values
// are validated up front: contradictory settings (a negative drop
// probability, a zero machine count, an unknown -run name) exit
// non-zero with a per-flag error instead of being silently clamped.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/experiments"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

func main() {
	p := experiments.DefaultPlan()
	run := flag.String("run", "all", "experiment to run: all, "+strings.Join(experiments.Stages, ", "))
	flag.IntVar(&p.Machines, "machines", p.Machines, "synthetic pool size")
	flag.Float64Var(&p.Months, "months", p.Months, "monitor campaign length (30-day months)")
	flag.IntVar(&p.Samples, "samples", p.Samples, "live-experiment samples per model")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "workload seed")
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	flag.IntVar(&p.Concurrency, "concurrency", p.Concurrency, "concurrent live-experiment test processes (paper total times suggest ~4)")
	tracePath := flag.String("trace", "", "write an execution timeline to this file (.json Chrome trace, .jsonl compact)")
	flag.Float64Var(&p.Faults.TearProb, "chaos-tear", p.Faults.TearProb, "chaos: probability a transfer tears mid-flight")
	flag.Float64Var(&p.Faults.StallProb, "chaos-stall", p.Faults.StallProb, "chaos: probability a transfer stalls")
	flag.Float64Var(&p.Faults.StallSec, "chaos-stall-sec", p.Faults.StallSec, "chaos: stall duration, seconds")
	flag.Float64Var(&p.Faults.OutageProb, "chaos-outage", p.Faults.OutageProb, "chaos: probability the manager is unreachable at transfer start")
	flag.Float64Var(&p.Predict.Precision, "predict-precision", p.Predict.Precision, "fault predictor precision (fraction of alarms that are true)")
	flag.Float64Var(&p.Predict.Recall, "predict-recall", p.Predict.Recall, "fault predictor recall (fraction of failures predicted)")
	flag.Float64Var(&p.Predict.LeadSec, "predict-lead", p.Predict.LeadSec, "fault predictor lead time before failure, seconds")
	flag.Float64Var(&p.DirtyRate, "delta-dirty-rate", p.DirtyRate, "delta: per-chunk dirtying rate, 1/seconds")
	policy := flag.String("policy", p.Policy.String(), "prediction policy for the chaos experiment: reactive, proactive, migrate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	statsDump := flag.Bool("stats", false, "print the final metrics-registry snapshot as JSON on stderr")
	flag.Parse()

	var check cliflag.Checker
	var err error
	p.Stages, err = experiments.SelectStages(*run)
	check.Check("-run", err)
	check.PositiveInt("-machines", p.Machines)
	check.Positive("-months", p.Months)
	check.PositiveInt("-samples", p.Samples)
	check.PositiveInt("-concurrency", p.Concurrency)
	check.Probability("-chaos-tear", p.Faults.TearProb)
	check.Probability("-chaos-stall", p.Faults.StallProb)
	check.NonNegative("-chaos-stall-sec", p.Faults.StallSec)
	check.Probability("-chaos-outage", p.Faults.OutageProb)
	check.Check("-predict-precision/-predict-recall/-predict-lead", p.Predict.Validate())
	check.Positive("-delta-dirty-rate", p.DirtyRate)
	p.Policy, err = predict.ParsePolicy(*policy)
	check.Check("-policy", err)
	if err := check.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-experiments: invalid flags:")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	err = cliflag.Diagnose("ckpt-experiments", *cpuprofile, *memprofile, *statsDump,
		[]func(*obs.Registry){fit.Instrument, markov.Instrument, parallel.Instrument},
		func() error {
			return cliflag.Traced(*tracePath, func(tracer *obs.Tracer) error {
				p.Tracer = tracer
				rep, err := p.Run()
				if err != nil {
					return err
				}
				if err := rep.Render(os.Stdout); err != nil {
					return err
				}
				return writeCSVs(*csvDir, rep)
			})
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-experiments:", err)
		os.Exit(1)
	}
}

// writeCSVs writes the selected figures' series into dir, creating it;
// empty dir means CSV export is off.
func writeCSVs(dir string, rep *experiments.Report) error {
	if dir == "" || rep.Sweep == nil {
		return nil
	}
	figures := map[string][]experiments.Series{"figure3": rep.Sweep.Figure3(), "figure4": rep.Sweep.Figure4()}
	for _, stage := range rep.Plan.Stages {
		series, ok := figures[stage]
		if !ok {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, stage+".csv")
		if err := os.WriteFile(path, []byte(experiments.FigureCSV(rep.Sweep.CTimes, series)), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n\n", path)
	}
	return nil
}
