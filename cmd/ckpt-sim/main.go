// Command ckpt-sim replays availability traces through the
// discrete-event checkpoint simulator and reports per-machine and
// aggregate efficiency and network load for each availability model.
//
// With no -avail file it simulates a synthetic pool drawn from the
// paper's Table 2 law (Weibull k=0.43, λ=3409), reproducible via
// -seed. With -trace it writes a Chrome-trace (Perfetto-loadable)
// timeline of every period, transfer and eviction; a .jsonl suffix
// selects the compact line format that ckpt-report timeline replays.
//
// Usage:
//
//	ckpt-sim [-avail traces.csv] [-seed 1] -c 500 [-size 500] [-train 25] [-min 60] [-permachine] [-trace out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/stats"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// options collects the run parameters of one ckpt-sim invocation.
type options struct {
	availPath   string
	tracePath   string
	historyPath string
	historyWin  float64
	historyCap  int
	c, size     float64
	train       int
	minRec      int
	perMachine  bool
	seed        int64
}

func main() {
	var opts options
	flag.StringVar(&opts.availPath, "avail", "", "availability trace CSV (default: synthetic pool from -seed)")
	flag.StringVar(&opts.tracePath, "trace", "", "write an execution timeline to this file (.json Chrome trace, .jsonl compact)")
	flag.StringVar(&opts.historyPath, "history", "", "write per-run windowed metric history (virtual clock) to this JSON file")
	flag.Float64Var(&opts.historyWin, "history-window", 3600, "history window width, simulated seconds")
	flag.IntVar(&opts.historyCap, "history-windows", 512, "history ring capacity, windows")
	flag.Float64Var(&opts.c, "c", 500, "checkpoint/recovery cost, seconds")
	flag.Float64Var(&opts.size, "size", 500, "checkpoint image size, MB")
	flag.IntVar(&opts.train, "train", trace.DefaultTrainingSize, "training-prefix length")
	flag.IntVar(&opts.minRec, "min", 60, "minimum records per machine")
	flag.BoolVar(&opts.perMachine, "permachine", false, "print per-machine rows")
	flag.Int64Var(&opts.seed, "seed", 1, "seed for the synthetic pool when -avail is absent")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	statsDump := flag.Bool("stats", false, "print the final metrics-registry snapshot as JSON on stderr")
	flag.Parse()

	err := cliflag.Diagnose("ckpt-sim", *cpuprofile, *memprofile, *statsDump,
		[]func(*obs.Registry){fit.Instrument, markov.Instrument},
		func() error { return run(opts) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-sim:", err)
		os.Exit(1)
	}
}

// loadWorkload returns the availability set: the -avail CSV when
// given, otherwise a synthetic pool drawn from the paper's Table 2 law
// (Weibull k=0.43, λ=3409 s) with per-machine seeds derived from seed.
func loadWorkload(availPath string, seed int64) (*trace.Set, error) {
	if availPath != "" {
		return trace.LoadCSV(availPath)
	}
	set := trace.NewSet()
	for i := 0; i < 4; i++ {
		machine := fmt.Sprintf("synth%02d", i)
		tr, err := trace.Generate(trace.GenerateOptions{
			Machine: machine,
			N:       150,
			Avail:   dist.NewWeibull(0.43, 3409),
			Seed:    seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		for _, r := range tr.Records {
			set.Add(machine, r)
		}
	}
	return set, nil
}

func run(opts options) error {
	return cliflag.Traced(opts.tracePath, func(tracer *obs.Tracer) error { return simulate(opts, tracer) })
}

func simulate(opts options, tracer *obs.Tracer) error {
	set, err := loadWorkload(opts.availPath, opts.seed)
	if err != nil {
		return err
	}
	traces := set.WithAtLeast(opts.minRec)
	if len(traces) == 0 {
		return fmt.Errorf("no machine has >= %d records", opts.minRec)
	}
	cfg := sim.Config{
		Costs:        markov.Costs{C: opts.c, R: opts.c, L: opts.c},
		CheckpointMB: opts.size,
		Trace:        tracer,
	}
	fmt.Printf("simulating %d machines, C=R=%g s, %g MB checkpoints\n\n", len(traces), opts.c, opts.size)

	// Each (model, machine) replay starts its virtual clock at zero, so
	// every run gets its own history ring; the export maps run keys to
	// DESIGN.md §17 snapshots.
	var histories map[string]obs.HistorySnapshot
	if opts.historyPath != "" {
		histories = make(map[string]obs.HistorySnapshot)
	}

	for mi, model := range fit.Models {
		var effs, mbs []float64
		if opts.perMachine {
			fmt.Printf("--- %v ---\n", model)
		}
		for ti, tr := range traces {
			tdata, test, err := tr.Split(opts.train)
			if err != nil {
				return err
			}
			// One trace lane per (model, machine): the replay loop is
			// sequential, so the export is deterministic for a fixed
			// workload at any GOMAXPROCS.
			cfg.TracePid = uint64(mi*len(traces)+ti) + 1
			var hist *obs.History
			if histories != nil {
				hist = obs.NewHistory(obs.HistoryOptions{
					Registry: obs.NewRegistry(),
					Window:   opts.historyWin,
					Capacity: opts.historyCap,
				})
			}
			cfg.History = hist
			run, err := sim.RunModel(tdata, test, model, cfg)
			if err != nil {
				return fmt.Errorf("%s under %v: %w", tr.Machine, model, err)
			}
			if hist != nil {
				histories[fmt.Sprintf("%v/%s", model, tr.Machine)] = hist.Snapshot()
			}
			effs = append(effs, run.Result.Efficiency())
			mbs = append(mbs, run.Result.MBTransferred)
			if opts.perMachine {
				fmt.Printf("  %-16s eff=%.3f MB=%.0f commits=%d failures=%d\n",
					tr.Machine, run.Result.Efficiency(), run.Result.MBTransferred,
					run.Result.Commits, run.Result.FailedIntervals+run.Result.FailedCheckpoints)
			}
		}
		effCI, err := stats.MeanCI(effs, 0.95)
		if err != nil {
			return err
		}
		mbCI, err := stats.MeanCI(mbs, 0.95)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s efficiency %.3f ± %.3f   bandwidth %.0f ± %.0f MB\n",
			model, effCI.Mean, effCI.HalfWidth, mbCI.Mean, mbCI.HalfWidth)
	}
	if histories != nil {
		return writeHistories(opts.historyPath, histories)
	}
	return nil
}

// writeHistories dumps the per-run history snapshots as one JSON
// object keyed by "model/machine".
func writeHistories(path string, histories map[string]obs.HistorySnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(histories); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
