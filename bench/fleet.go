package main

import (
	"fmt"
	"time"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// fleetHours is the simulated horizon of every sim_fleet run.
const fleetHours = 24

var fleetPolicies = []parallel.StaggerPolicy{parallel.StaggerNone, parallel.StaggerToken, parallel.StaggerJitter}

// fleetConfig is the gated BenchmarkParallelRun regime: the pooled
// Weibull law for truth and schedule, 500 MB images, 2 MB/s of link per
// worker.
func fleetConfig(workers int, hours float64, stagger parallel.StaggerPolicy, seed int64) parallel.Config {
	law := dist.NewWeibull(weibullShape, weibullScale)
	return parallel.Config{
		Workers:      workers,
		Avail:        law,
		ScheduleDist: law,
		LinkMBps:     2 * float64(workers),
		CheckpointMB: 500,
		Duration:     hours * 3600,
		Stagger:      stagger,
		Seed:         seed,
	}
}

// warmFleet builds (and leaves in parallel's schedule memo) the one
// schedule every fleet run shares, so the measured turns time the
// engine and not a first-call schedule build.
func warmFleet(seed int64) error {
	_, err := parallel.Run(fleetConfig(64, fleetHours, parallel.StaggerNone, seed))
	return err
}

// fleetFigures is what one sim_fleet pass measured.
type fleetFigures struct {
	workerHoursPerS float64            // median turn
	policyMs        map[string]float64 // median run per stagger policy
	commits         int                // summed over the three policies, one turn
	failures        int
	counts          loadCounts
}

// runFleet is the sim_fleet phase: sc.fleetTurns turns, each running
// the three stagger policies in turn over w.workers × 24 h. A run whose
// Result differs from the same policy's first is a failure.
func runFleet(w *workload, sc *scale, seed int64, rec *recorder) (fleetFigures, error) {
	f := fleetFigures{policyMs: map[string]float64{}}
	first := make([]parallel.Result, len(fleetPolicies))
	perPolicy := make([][]float64, len(fleetPolicies))
	var rates []float64
	for turn := 0; turn < sc.fleetTurns; turn++ {
		turnStart := time.Now()
		for i, pol := range fleetPolicies {
			sp := rec.start("parallel.run." + pol.String())
			t0 := time.Now()
			res, err := parallel.Run(fleetConfig(w.workers, fleetHours, pol, seed))
			perPolicy[i] = append(perPolicy[i], time.Since(t0).Seconds()*1e3)
			sp.end()
			if err != nil {
				return f, fmt.Errorf("sim_fleet %s: %w", pol, err)
			}
			f.counts.attempted++
			if turn == 0 {
				first[i] = res
				f.commits += res.Commits
				f.failures += res.Failures
			}
			if res != first[i] || res.Commits <= 0 {
				f.counts.failed++
			}
		}
		hours := float64(w.workers) * fleetHours * float64(len(fleetPolicies))
		rates = append(rates, hours/time.Since(turnStart).Seconds())
	}
	f.workerHoursPerS = stats.Median(rates)
	for i, pol := range fleetPolicies {
		f.policyMs[pol.String()] = stats.Median(perPolicy[i])
	}
	return f, nil
}
