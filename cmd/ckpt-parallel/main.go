// Command ckpt-parallel simulates a parallel job whose processes share
// one network path to the checkpoint manager — the paper's §5.2
// future-work scenario of colliding checkpoints — comparing
// availability models and coordination policies.
//
// Cells of the (model × stagger) grid run concurrently on a bounded
// worker pool, and -seeds replicates each cell on independent
// splitmix64-derived RNG streams so the efficiency column carries a
// 95% confidence half-width instead of a single-seed point estimate.
// Output is byte-identical for a fixed flag set regardless of
// -maxprocs or GOMAXPROCS.
//
// -policies adds a fault-prediction axis: a comma-separated subset of
// reactive, proactive and migrate, every non-reactive entry driven by
// the -predict-* predictor quality. The policy column appears whenever
// the axis is explicit.
//
// Usage:
//
//	ckpt-parallel [-workers 16] [-shards 0] [-link 5] [-mb 500] [-hours 72] \
//	    [-shape 0.43] [-scale 3409] [-seed 42] [-seeds 1] [-maxprocs N] \
//	    [-policies reactive,proactive,migrate] \
//	    [-predict-precision 0.85] [-predict-recall 0.8] [-predict-lead 240] \
//	    [-trace out.json]
//
// -trace writes a Chrome-trace (Perfetto-loadable) timeline of every
// cell's transfers, failures and per-run summary, one lane per
// (model, stagger, replicate) task; a .jsonl suffix selects the
// compact line format that ckpt-report timeline replays. The trace,
// like the table, is byte-identical at any pool width.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/cycleharvest/ckptsched/internal/cliflag"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

func main() {
	workers := flag.Int("workers", 16, "processes (one per machine)")
	shards := flag.Int("shards", 0, "event-calendar sub-engines (0 = auto from worker count; results are identical for any value)")
	link := flag.Float64("link", 5, "shared link capacity, MB/s")
	mb := flag.Float64("mb", 500, "checkpoint image size, MB")
	hours := flag.Float64("hours", 72, "simulated horizon, hours")
	shape := flag.Float64("shape", 0.43, "machine availability Weibull shape")
	scale := flag.Float64("scale", 3409, "machine availability Weibull scale, s")
	seed := flag.Int64("seed", 42, "base simulation seed")
	seeds := flag.Int("seeds", 1, "independent replicates per cell (95% CI when > 1)")
	maxprocs := flag.Int("maxprocs", runtime.GOMAXPROCS(0), "concurrent simulation cells")
	policiesFlag := flag.String("policies", "", "comma-separated prediction-policy axis (reactive, proactive, migrate); empty runs the reactive baseline only")
	predPrecision := flag.Float64("predict-precision", 0.85, "fault predictor precision for non-reactive policies")
	predRecall := flag.Float64("predict-recall", 0.8, "fault predictor recall for non-reactive policies")
	predLead := flag.Float64("predict-lead", 240, "fault predictor lead time, seconds")
	tracePath := flag.String("trace", "", "write an execution timeline to this file (.json Chrome trace, .jsonl compact)")
	statsDump := flag.Bool("stats", false, "print the final metrics-registry snapshot as JSON on stderr")
	flag.Parse()

	pcfg := predict.Config{Precision: *predPrecision, Recall: *predRecall, LeadSec: *predLead}
	var check cliflag.Checker
	check.PositiveInt("-workers", *workers)
	check.NonNegativeInt("-shards", *shards)
	check.Positive("-link", *link)
	check.Positive("-mb", *mb)
	check.Positive("-hours", *hours)
	check.Positive("-shape", *shape)
	check.Positive("-scale", *scale)
	check.PositiveInt("-seeds", *seeds)
	check.Check("-predict-precision/-predict-recall/-predict-lead", pcfg.Validate())
	policies, perr := parsePolicies(*policiesFlag, pcfg)
	check.Check("-policies", perr)
	if err := check.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-parallel: invalid flags:")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	err := cliflag.Diagnose("ckpt-parallel", "", "", *statsDump,
		[]func(*obs.Registry){parallel.Instrument, markov.Instrument},
		func() error {
			return cliflag.Traced(*tracePath, func(tracer *obs.Tracer) error {
				return run(*workers, *shards, *link, *mb, *hours, *shape, *scale, *seed, *seeds, *maxprocs, policies, tracer)
			})
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-parallel:", err)
		os.Exit(1)
	}
}

// parsePolicies turns the -policies list into a grid axis; every
// non-reactive entry is driven by the shared -predict-* quality. An
// empty flag returns nil, keeping the implicit reactive baseline (and
// the no-axis table layout).
func parsePolicies(list string, pcfg predict.Config) ([]parallel.GridPolicy, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []parallel.GridPolicy
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		pol, err := predict.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		gp := parallel.GridPolicy{Name: name, Policy: pol}
		if pol != predict.PolicyReactive {
			gp.Predict = pcfg
		}
		out = append(out, gp)
	}
	return out, nil
}

func run(workers, shards int, link, mb, hours, shape, scale float64, seed int64, seeds, maxprocs int, policies []parallel.GridPolicy, tracer *obs.Tracer) error {
	avail := dist.NewWeibull(shape, scale)
	expFit := dist.NewExponential(1 / avail.Mean())
	grid, err := parallel.RunGrid(parallel.GridConfig{
		Base: parallel.Config{
			Workers:      workers,
			Shards:       shards,
			Avail:        avail,
			LinkMBps:     link,
			CheckpointMB: mb,
			Duration:     hours * 3600,
			Trace:        tracer,
		},
		Models: []parallel.GridModel{
			{Name: "exponential", Dist: expFit},
			{Name: "weibull", Dist: avail},
		},
		Staggers: []parallel.StaggerPolicy{
			parallel.StaggerNone, parallel.StaggerToken, parallel.StaggerJitter,
		},
		Policies: policies,
		Seeds:    seeds,
		Seed:     seed,
		MaxProcs: maxprocs,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%d processes, %g MB images, shared %g MB/s link (solo transfer %.0f s), %g h horizon",
		workers, mb, link, mb/link, hours)
	if seeds > 1 {
		fmt.Printf(", %d seeds (±95%% CI)", seeds)
	}
	fmt.Printf("\n\n")
	effWidth := 10
	if seeds > 1 {
		effWidth = 16
	}
	// The policy and migration columns only appear when the axis is
	// explicit, so the default table stays byte-identical to the
	// pre-axis layout.
	withPolicy := len(policies) > 0
	fmt.Printf("%-12s ", "model")
	if withPolicy {
		fmt.Printf("%-10s ", "policy")
	}
	fmt.Printf("%-8s %*s %10s %12s %9s %12s %12s",
		"stagger", effWidth, "efficiency", "commits", "network MB", "stretch", "collisions", "queue-wait s")
	if withPolicy {
		fmt.Printf(" %6s %8s", "migr", "migr MB")
	}
	fmt.Println()
	for i := range grid.Cells {
		c := &grid.Cells[i]
		eff := c.Efficiency()
		effCol := fmt.Sprintf("%.3f", eff.Mean)
		if seeds > 1 {
			effCol = fmt.Sprintf("%.3f±%.3f", eff.Mean, eff.HalfWidth)
		}
		mean := func(f func(parallel.Result) float64) float64 { return c.Metric(f).Mean }
		fmt.Printf("%-12s ", c.Model)
		if withPolicy {
			fmt.Printf("%-10s ", c.Policy)
		}
		fmt.Printf("%-8s %*s %10.0f %12.0f %8.2fx %12.0f %12.0f",
			c.Stagger, effWidth, effCol,
			mean(func(r parallel.Result) float64 { return float64(r.Commits) }),
			mean(func(r parallel.Result) float64 { return r.MBMoved }),
			mean(parallel.Result.CollisionStretch),
			mean(func(r parallel.Result) float64 { return float64(r.Collisions) }),
			mean(func(r parallel.Result) float64 { return r.QueueWaitSec }))
		if withPolicy {
			fmt.Printf(" %6.0f %8.0f",
				mean(func(r parallel.Result) float64 { return float64(r.Migrations) }),
				mean(func(r parallel.Result) float64 { return r.MigrationMB }))
		}
		fmt.Println()
	}
	if fb := sumFallbacks(grid); fb > 0 {
		fmt.Printf("\nschedule fallbacks: %d intervals served beyond the planned schedule\n", fb)
	}
	return nil
}

func sumFallbacks(g *parallel.Grid) int {
	n := 0
	for _, c := range g.Cells {
		for _, r := range c.Results {
			n += r.ScheduleFallbacks
		}
	}
	return n
}
