package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/cycleharvest/ckptsched/internal/stats"
)

// endToEndOrder lists the end-to-end metrics in print order;
// BENCHMARK.json carries the same names with unit, direction and bound.
var endToEndOrder = []string{
	"setup_s",
	"lookup_rps", "lookup_p50_us", "lookup_p99_us",
	"install_per_s", "install_p99_ms",
	"ckpt_p50_ms", "recovery_p50_ms", "wire_bytes_per_image_byte",
	"campaign_wall_s", "campaign_efficiency", "campaign_wire_mb_per_h",
	"sim_worker_hours_per_s",
}

// countMetrics are the end-to-end metrics that are counts, not timings:
// the same tree repeats them exactly.
var countMetrics = map[string]bool{
	"wire_bytes_per_image_byte": true,
	"campaign_efficiency":       true,
	"campaign_wire_mb_per_h":    true,
}

// envs is everything set-up builds: the booted servers and the inputs
// generated from the seed.
type envs struct {
	serve    *serveEnv
	transfer *transferEnv
}

func (e *envs) close() {
	if e.serve != nil {
		e.serve.close()
	}
	if e.transfer != nil {
		e.transfer.close()
	}
}

// setUp boots the service and the checkpoint manager, installs the key
// space, synthesizes histories and the image, and commits the job's
// first image — everything the socket phases need before they are
// measured.
func setUp(w *workload, sc *scale, seed int64) (*envs, error) {
	e := &envs{}
	var err error
	if e.serve, err = newServeEnv(w, sc, seed, false); err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	if e.transfer, err = newTransferEnv(w, seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// figures is everything one pass over the phases measured.
type figures struct {
	setupS   float64
	lookup   lookupFigures
	install  installFigures
	transfer transferFigures
	campaign campaignFigures
	fleet    fleetFigures

	phaseWallS  map[string]float64
	phaseAllocB map[string]uint64
	gcCycles    uint32
}

// runPass runs the five phases. sim_fleet goes first, before the
// servers exist: parallel.Run allocates each run's worker slabs afresh,
// and with the other phases' fixtures live the collector lets the heap
// grow until every run lands on pages the kernel has yet to fault in
// (6 % spread and 10 % slower than cmd/ckpt-parallel sees in a process
// of its own; 1 % from an empty heap). Then set-up (sc.setups times,
// keeping the last), then the socket phases and the campaign. rec is
// nil for the untraced pass.
func runPass(w *workload, sc *scale, seed int64, rec *recorder) (*figures, error) {
	fig := &figures{phaseWallS: map[string]float64{}, phaseAllocB: map[string]uint64{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	phase := func(name string, run func() error) error {
		runtime.GC() // each phase starts from a collected heap
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := rec.start(name)
		t0 := time.Now()
		err := run()
		fig.phaseWallS[name] = time.Since(t0).Seconds()
		sp.end()
		runtime.ReadMemStats(&after)
		fig.phaseAllocB[name] = after.TotalAlloc - before.TotalAlloc
		return err
	}

	// The fleet's share of set-up is the one schedule every run shares.
	sp := rec.start("setup")
	t0 := time.Now()
	err := warmFleet(seed)
	warmS := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return nil, err
	}
	if err := phase(phaseFleet, func() (err error) {
		fig.fleet, err = runFleet(w, sc, seed, rec)
		return err
	}); err != nil {
		return nil, err
	}

	var env *envs
	var setupTimes []float64
	for i := 0; i < sc.setups; i++ {
		if env != nil {
			env.close()
		}
		sp := rec.start("setup")
		t0 := time.Now()
		env, err = setUp(w, sc, seed)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	defer env.close()
	fig.setupS = warmS + stats.Median(setupTimes)

	err = phase(phaseLookup, func() (err error) {
		fig.lookup, err = runLookup(env.serve, sc, rec)
		return err
	})
	if err == nil {
		err = phase(phaseInstall, func() (err error) {
			fig.install, err = runInstall(env.serve, rec)
			return err
		})
	}
	if err == nil {
		err = phase(phaseTransfer, func() (err error) {
			fig.transfer, err = runTransfer(env.transfer, w, sc, seed, rec)
			return err
		})
	}
	if err == nil {
		err = phase(phaseCampaign, func() (err error) {
			fig.campaign, err = runCampaign(w, rec)
			return err
		})
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	fig.gcCycles = ms1.NumGC - ms0.NumGC
	return fig, err
}

// counts sums attempted and failed operations over the phases.
func (f *figures) counts() loadCounts {
	var c loadCounts
	c.add(f.lookup.counts)
	c.add(f.install.counts)
	c.add(f.transfer.counts)
	c.add(f.campaign.counts)
	c.add(f.fleet.counts)
	return c
}

// report turns a pass into the end-to-end report.
func (f *figures) report() *report {
	ms := map[string]metric{
		"setup_s":                   {f.setupS, "s"},
		"lookup_rps":                {f.lookup.rps, "req/s"},
		"lookup_p50_us":             {f.lookup.p50, "us"},
		"lookup_p99_us":             {f.lookup.p99, "us"},
		"install_per_s":             {f.install.perSec, "1/s"},
		"install_p99_ms":            {f.install.p99ms, "ms"},
		"ckpt_p50_ms":               {f.transfer.ckptP50ms, "ms"},
		"recovery_p50_ms":           {f.transfer.recoveryP50ms, "ms"},
		"wire_bytes_per_image_byte": {f.transfer.wirePerImageByte, "ratio"},
		"campaign_wall_s":           {f.campaign.wallS, "s"},
		"campaign_efficiency":       {f.campaign.efficiency, "ratio"},
		"campaign_wire_mb_per_h":    {f.campaign.wireMBph, "MB/h"},
		"sim_worker_hours_per_s":    {f.fleet.workerHoursPerS, "1/s"},
	}
	c := f.counts()
	return &report{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   ms,
	}
}

// printSummary prints what a person reading the run wants beside the
// metrics: operations per phase, wall time, generator lateness.
func (f *figures) printSummary(out io.Writer) {
	row := func(name string, c loadCounts) {
		fmt.Fprintf(out, "# %-15s %8.2f s  attempted %9d  failed %d\n", name, f.phaseWallS[name], c.attempted, c.failed)
	}
	row(phaseLookup, f.lookup.counts)
	row(phaseInstall, f.install.counts)
	row(phaseTransfer, f.transfer.counts)
	row(phaseCampaign, f.campaign.counts)
	row(phaseFleet, f.fleet.counts)
	for _, p := range f.campaign.problems {
		fmt.Fprintf(out, "# check failed: %s\n", p)
	}
	fmt.Fprintf(out, "# open-loop generator ran late by p99 %.1f us; shed %d\n", f.lookup.lateP99, f.lookup.counts.shed)
}
