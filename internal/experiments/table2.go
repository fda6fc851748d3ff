package experiments

import (
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// table2CTimes are the two checkpoint costs of the paper's Table 2.
var table2CTimes = []float64{50, 500}

// Table2Config parameterizes the known-truth synthetic study.
type Table2Config struct {
	// Shape and Scale are the generating Weibull's parameters; zeros
	// mean the paper's 0.43 / 3409.
	Shape, Scale float64
	// N is the synthetic trace length; zero means the paper's 5000.
	N int
	// Seed makes the trace deterministic.
	Seed int64

	lanes buildLanes // schedule-build trace lanes, one per build in order
}

func (c *Table2Config) setDefaults() {
	if c.Shape <= 0 {
		c.Shape = 0.43
	}
	if c.Scale <= 0 {
		c.Scale = 3409
	}
	if c.N <= 0 {
		c.N = 5000
	}
}

// Table2Cell is one efficiency entry of Table 2.
type Table2Cell struct {
	Model      fit.Model
	CTime      float64
	FitOnAll   bool // true = fit on all N points, false = first 25
	Efficiency float64
}

// Table2Result is the full grid plus the generating parameters.
type Table2Result struct {
	Shape, Scale float64
	N            int
	Cells        []Table2Cell
}

// Cell looks up one entry.
func (t *Table2Result) Cell(m fit.Model, ctime float64, all bool) (Table2Cell, bool) {
	for _, c := range t.Cells {
		if c.Model == m && c.CTime == ctime && c.FitOnAll == all {
			return c, true
		}
	}
	return Table2Cell{}, false
}

// RunTable2 reproduces the paper's Table 2: a 5000-value availability
// trace is drawn from a known heavy-tailed Weibull; the simulation is
// repeated with each model fitted on all values and on only the first
// 25. The Weibull row uses the exact generating parameters ("precisely
// the same model that was used to generate the artificial trace"), so
// its schedule is optimal and the others quantify the efficiency cost
// of model mismatch.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	cfg.setDefaults()
	truth := dist.NewWeibull(cfg.Shape, cfg.Scale)
	tr, err := trace.Generate(trace.GenerateOptions{
		Machine: "table2-synthetic",
		N:       cfg.N,
		Avail:   truth,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	durations := tr.Durations()
	first25 := durations[:trace.DefaultTrainingSize]

	res := &Table2Result{Shape: cfg.Shape, Scale: cfg.Scale, N: cfg.N}
	// Fit-once: the training sets do not depend on the checkpoint cost,
	// so each (model, training-set) pair is fitted a single time and
	// shared across the C-time axis through the cache.
	fits := fit.NewCache()
	fitFor := func(model fit.Model, all bool) (dist.Distribution, error) {
		if model == fit.ModelWeibull {
			return truth, nil // the exact generating model
		}
		if all {
			return fits.Fit("all", model, durations)
		}
		return fits.Fit("first25", model, first25)
	}
	for _, ctime := range table2CTimes {
		costs := markov.Costs{C: ctime, R: ctime, L: ctime}
		simCfg := sim.Config{Costs: costs, CheckpointMB: PaperCheckpointMB}
		for _, model := range fit.Models {
			for _, all := range []bool{true, false} {
				d, err := fitFor(model, all)
				if err != nil {
					return nil, fmt.Errorf("experiments: table2 fit %v: %w", model, err)
				}
				run, err := sim.RunFitted(d, model, durations, simCfg,
					cfg.lanes.opts(len(res.Cells), obs.AttrStr("machine", tr.Machine)))
				if err != nil {
					return nil, fmt.Errorf("experiments: table2 sim %v C=%g: %w", model, ctime, err)
				}
				res.Cells = append(res.Cells, Table2Cell{
					Model: model, CTime: ctime, FitOnAll: all, Efficiency: run.Result.Efficiency(),
				})
			}
		}
	}
	return res, nil
}
