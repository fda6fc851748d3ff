// Package experiments regenerates every table and figure in the
// paper's evaluation (§5): the trace-driven efficiency and bandwidth
// sweeps (Figure 3 / Table 1, Figure 4 / Table 3), the known-truth
// synthetic-Weibull study (Table 2), the live-system campaigns with
// campus and wide-area checkpoint managers (Tables 4 and 5), and the
// simulation-vs-live validation (§5.3).
//
// The workload substitutes a simulated Condor pool for the paper's
// UW–Madison deployment: a heterogeneous synthetic pool is monitored
// by occupancy sensors for a configurable number of virtual months,
// and every experiment downstream consumes only the resulting
// per-machine availability traces — the same interface the paper's
// pipeline has to its measured data.
package experiments

import (
	"errors"
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/condor"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// WorkloadConfig sizes the shared dataset.
type WorkloadConfig struct {
	// Machines is the synthetic pool size. Default 80.
	Machines int
	// Monitors is how many occupancy sensors to run. Default:
	// Machines (full coverage; use fewer to exercise undersampling).
	Monitors int
	// Months is the measurement-campaign length in 30-day months.
	// Default 18, the paper's period.
	Months float64
	// MinRecords filters machines to those with enough observations
	// to split into 25 training + ≥1 experimental values. Default 60
	// so experimental sets are meaningful.
	MinRecords int
	// DiurnalAmplitude, when positive, gives the pool a time-of-day
	// idle modulation (nonstationary traces; see condor.Machine).
	DiurnalAmplitude float64
	// Seed makes the workload deterministic.
	Seed int64
}

func (c *WorkloadConfig) setDefaults() {
	if c.Machines <= 0 {
		c.Machines = 80
	}
	if c.Monitors <= 0 {
		c.Monitors = c.Machines
	}
	if c.Months <= 0 {
		c.Months = 18
	}
	if c.MinRecords <= trace.DefaultTrainingSize {
		c.MinRecords = 60
	}
}

// MachineData is one machine's split trace.
type MachineData struct {
	Machine string
	Train   []float64
	Test    []float64
}

// Workload is the shared dataset all experiments draw from.
type Workload struct {
	// Machines is the synthetic pool specification.
	Machines []condor.Machine
	// History is the full monitor-collected trace set.
	History *trace.Set
	// Data lists the machines passing the MinRecords filter, each
	// split into the paper's first-25 training prefix and the
	// experimental remainder.
	Data []MachineData
	// fits memoizes the per-machine fits of History for every live
	// campaign and validation run on this workload (Tables 4 and 5, the
	// chaos and delta studies): they all place their processes on the
	// same machines, so between them each (machine, model) pair is
	// fitted once. Nil in a Workload not built by NewWorkload, in which
	// case each campaign fits for itself.
	fits *live.Fits
}

// NewWorkload builds the shared dataset: generate the pool, run the
// occupancy-monitor campaign, filter and split the traces.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg.setDefaults()
	machines, err := condor.SyntheticPool(condor.SyntheticPoolConfig{
		Machines:         cfg.Machines,
		DiurnalAmplitude: cfg.DiurnalAmplitude,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	pool, err := condor.NewPool(machines, cfg.Seed)
	if err != nil {
		return nil, err
	}
	history, err := condor.CollectTraces(pool, condor.MonitorConfig{
		Monitors: cfg.Monitors,
		Duration: condor.MonthsSeconds(cfg.Months),
	})
	if err != nil {
		return nil, err
	}
	w := &Workload{Machines: machines, History: history}
	for _, tr := range history.WithAtLeast(cfg.MinRecords) {
		train, test, err := tr.Split(trace.DefaultTrainingSize)
		if err != nil {
			return nil, fmt.Errorf("experiments: splitting %s: %w", tr.Machine, err)
		}
		w.Data = append(w.Data, MachineData{Machine: tr.Machine, Train: train, Test: test})
	}
	if len(w.Data) == 0 {
		return nil, errors.New("experiments: no machine passed the record-count filter; lengthen the campaign")
	}
	if w.fits, err = live.NewFits(history); err != nil {
		return nil, err
	}
	return w, nil
}

// PaperCTimes are the checkpoint/recovery durations swept by Figures
// 3-4 and Tables 1 and 3.
var PaperCTimes = []float64{50, 100, 200, 250, 400, 500, 750, 1000, 1250, 1500}

// PaperCheckpointMB is the checkpoint image size used throughout the
// paper's network-load results.
const PaperCheckpointMB = 500
