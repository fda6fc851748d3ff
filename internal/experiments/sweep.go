package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// Sweep holds the per-machine outcomes of the C-time × model grid
// behind Figures 3-4 and Tables 1 and 3.
type Sweep struct {
	// CTimes is the checkpoint-duration axis.
	CTimes []float64
	// Machines lists machine names, aligning the per-machine slices.
	Machines []string
	// Efficiency[model][ci][mi] is machine mi's utilization at
	// CTimes[ci] under the model's schedule.
	Efficiency map[fit.Model][][]float64
	// MB[model][ci][mi] is the corresponding network load in
	// megabytes.
	MB map[fit.Model][][]float64
}

// RunSweep simulates every machine in the workload under every model
// at every checkpoint duration. Work is spread across CPUs: each
// (machine, C) pair is an independent task (the hpc-parallel sweet
// spot — coarse tasks, no shared mutable state, results written to
// pre-sized slices).
//
// Each (machine, model) pair is fitted exactly once, through a shared
// fit.Cache keyed by machine name, and the fitted distribution is
// reused across the entire checkpoint-duration axis via sim.RunFitted.
// The cache is single-flight, so even when several workers reach the
// same machine at different C values simultaneously the EM fit runs
// once and everyone else blocks on it; the fit itself is deterministic,
// so the results are identical to the refit-every-time protocol.
//
// When tasks fail, the error returned is the lowest (C index, machine
// index) task's, so it does not depend on worker interleaving.
func RunSweep(w *Workload, ctimes []float64, checkpointMB float64) (*Sweep, error) {
	return runSweep(w, ctimes, checkpointMB, buildLanes{})
}

// runSweep is RunSweep with the schedule builds traced: the build of
// (C index ci, machine mi, model k) takes lane ci·machines·models +
// mi·models + k of lanes.
func runSweep(w *Workload, ctimes []float64, checkpointMB float64, lanes buildLanes) (*Sweep, error) {
	if len(ctimes) == 0 {
		ctimes = PaperCTimes
	}
	if checkpointMB <= 0 {
		checkpointMB = PaperCheckpointMB
	}
	s := &Sweep{
		CTimes:     ctimes,
		Efficiency: make(map[fit.Model][][]float64),
		MB:         make(map[fit.Model][][]float64),
	}
	for _, m := range w.Data {
		s.Machines = append(s.Machines, m.Machine)
	}
	for _, model := range fit.Models {
		s.Efficiency[model] = grid(len(ctimes), len(w.Data))
		s.MB[model] = grid(len(ctimes), len(w.Data))
	}

	fits := fit.NewCache()
	// Task t is the (C index, machine index) pair (t / len, t % len).
	errs := make([]error, len(ctimes)*len(w.Data))
	forEach(len(errs), func(t int) {
		ci, mi := t/len(w.Data), t%len(w.Data)
		md := w.Data[mi]
		costs := markov.Costs{C: ctimes[ci], R: ctimes[ci], L: ctimes[ci]}
		for k, model := range fit.Models {
			d, err := fits.Fit(md.Machine, model, md.Train)
			if err != nil {
				errs[t] = fmt.Errorf("experiments: %s C=%g %v: fit: %w", md.Machine, ctimes[ci], model, err)
				return
			}
			run, err := sim.RunFitted(d, model, md.Test, sim.Config{
				Costs:        costs,
				CheckpointMB: checkpointMB,
			}, lanes.opts(t*len(fit.Models)+k, obs.AttrStr("machine", md.Machine)))
			if err != nil {
				errs[t] = fmt.Errorf("experiments: %s C=%g %v: %w", md.Machine, ctimes[ci], model, err)
				return
			}
			s.Efficiency[model][ci][mi] = run.Result.Efficiency()
			s.MB[model][ci][mi] = run.Result.MBTransferred
		}
	})
	// The lowest failing (C, machine) task wins, however the workers
	// interleaved.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// forEach calls fn(0) … fn(n-1) from min(GOMAXPROCS, n) workers and
// returns when every call has. fn must be safe to run concurrently
// with itself and must keep what it produces apart by index.
func forEach(n int, fn func(i int)) {
	idxc := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				fn(i)
			}
		}()
	}
	for i := range n {
		idxc <- i
	}
	close(idxc)
	wg.Wait()
}

func grid(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i], backing = backing[:cols], backing[cols:]
	}
	return out
}

// Cell is one table entry: a mean with its 95% confidence interval and
// the significance letters of models whose values are statistically
// significantly smaller (paper notation).
type Cell struct {
	CI      stats.CI
	Smaller []fit.Model
}

// Letters renders the significance annotation, e.g. "(e,w,2)".
func (c Cell) Letters() string {
	if len(c.Smaller) == 0 {
		return ""
	}
	out := "("
	for i, m := range c.Smaller {
		if i > 0 {
			out += ","
		}
		out += m.Letter()
	}
	return out + ")"
}

// Table is a rendered CTime × model grid of Cells (Tables 1 and 3).
type Table struct {
	Name   string
	CTimes []float64
	Cells  map[fit.Model][]Cell // Cells[model][ci]
}

// Alpha is the significance level of the paper's paired t-tests.
const Alpha = 0.05

// buildTable turns per-machine values into CI cells with significance
// letters, using two-sided paired t-tests between every model pair at
// each checkpoint duration.
func buildTable(name string, ctimes []float64, values map[fit.Model][][]float64) (*Table, error) {
	t := &Table{Name: name, CTimes: ctimes, Cells: make(map[fit.Model][]Cell)}
	for _, m := range fit.Models {
		t.Cells[m] = make([]Cell, len(ctimes))
	}
	for ci := range ctimes {
		for _, m := range fit.Models {
			ci95, err := stats.MeanCI(values[m][ci], 0.95)
			if err != nil {
				return nil, fmt.Errorf("experiments: CI for %v at C=%g: %w", m, ctimes[ci], err)
			}
			cell := Cell{CI: ci95}
			for _, other := range fit.Models {
				if other == m {
					continue
				}
				if stats.SignificantlyGreater(values[m][ci], values[other][ci], Alpha) {
					cell.Smaller = append(cell.Smaller, other)
				}
			}
			t.Cells[m][ci] = cell
		}
	}
	return t, nil
}

// Table1 builds the paper's Table 1: 95% confidence intervals for mean
// efficiency at each checkpoint duration, with significance letters.
func (s *Sweep) Table1() (*Table, error) {
	return buildTable("Table 1: mean efficiency (95% CI)", s.CTimes, s.Efficiency)
}

// Table3 builds the paper's Table 3: 95% confidence intervals for mean
// bandwidth (megabytes) at each checkpoint duration.
func (s *Sweep) Table3() (*Table, error) {
	return buildTable("Table 3: mean bandwidth, MB (95% CI)", s.CTimes, s.MB)
}

// Series is one model's mean curve over the CTime axis (Figures 3-4).
type Series struct {
	Model fit.Model
	Mean  []float64
}

// Figure3 returns the mean-efficiency curves of Figure 3.
func (s *Sweep) Figure3() []Series {
	return s.curves(s.Efficiency)
}

// Figure4 returns the mean-bandwidth curves of Figure 4.
func (s *Sweep) Figure4() []Series {
	return s.curves(s.MB)
}

func (s *Sweep) curves(values map[fit.Model][][]float64) []Series {
	var out []Series
	for _, m := range fit.Models {
		means := make([]float64, len(s.CTimes))
		for ci := range s.CTimes {
			means[ci] = stats.Mean(values[m][ci])
		}
		out = append(out, Series{Model: m, Mean: means})
	}
	return out
}
