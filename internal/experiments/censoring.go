package experiments

import (
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/condor"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/stats"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// CensoringStrategy is a way of handling right-censored observations
// when fitting from a short monitoring window.
type CensoringStrategy int

const (
	// CensorDrop discards censored observations entirely.
	CensorDrop CensoringStrategy = iota
	// CensorNaive treats censored durations as if they were exact
	// lifetimes (what a pipeline unaware of censoring silently does).
	CensorNaive
	// CensorAware uses the censoring-aware maximum-likelihood / EM
	// estimators.
	CensorAware
	// CensorLongTrain is the reference: the paper's protocol, fitting
	// on the first 25 values of the full-length campaign.
	CensorLongTrain
)

func (s CensoringStrategy) String() string {
	switch s {
	case CensorDrop:
		return "drop-censored"
	case CensorNaive:
		return "naive-exact"
	case CensorAware:
		return "censoring-aware"
	case CensorLongTrain:
		return "long-train (ref)"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// CensoringStrategies lists the strategies in presentation order.
var CensoringStrategies = []CensoringStrategy{
	CensorDrop, CensorNaive, CensorAware, CensorLongTrain,
}

// studyCTime is the checkpoint/recovery cost, in seconds, of the
// censoring and sensitivity extension studies.
const studyCTime = 500.0

// CensoringConfig parameterizes the censoring-sensitivity study (an
// extension quantifying the §5.3 discussion: short measurement windows
// right-censor availability data and bias naive fits).
type CensoringConfig struct {
	// Machines is the pool size. Default 40.
	Machines int
	// ShortDays is the short monitoring window. Default 1 day.
	ShortDays float64
	// Months is the full campaign used for the reference fit and the
	// experimental replay. Default 18.
	Months float64
	// Seed makes the study deterministic.
	Seed int64

	lanes buildLanes // schedule-build trace lanes, one per (machine, strategy, model)
}

func (c *CensoringConfig) setDefaults() {
	if c.Machines <= 0 {
		c.Machines = 40
	}
	if c.ShortDays <= 0 {
		c.ShortDays = 1
	}
	if c.Months <= 0 {
		c.Months = 18
	}
}

// CensoringCell aggregates one (strategy, model) combination across
// machines.
type CensoringCell struct {
	Strategy   CensoringStrategy
	Model      fit.Model
	Efficiency float64 // mean across machines
	MB         float64 // mean across machines
	Machines   int
}

// CensoringResult is the study outcome.
type CensoringResult struct {
	Config CensoringConfig
	// CensoredFraction is the fraction of short-window observations
	// that were right-censored.
	CensoredFraction float64
	Cells            []CensoringCell
}

// Cell looks up one entry.
func (r *CensoringResult) Cell(s CensoringStrategy, m fit.Model) (CensoringCell, bool) {
	for _, c := range r.Cells {
		if c.Strategy == s && c.Model == m {
			return c, true
		}
	}
	return CensoringCell{}, false
}

// RunCensoring measures how short, right-censored monitoring windows
// affect schedule quality. The same pool realization is monitored
// twice (identical seeds): once for the full campaign — its first 25
// values per machine give the reference fit, its remainder the replay
// workload — and once for only ShortDays with in-progress occupancies
// recorded as censored. Each censoring strategy fits each model from
// the short window, and every fitted model replays the same
// experimental trace.
func RunCensoring(cfg CensoringConfig) (*CensoringResult, error) {
	cfg.setDefaults()
	machines, err := condor.SyntheticPool(condor.SyntheticPoolConfig{
		Machines: cfg.Machines,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	collect := func(duration float64, censored bool) (*trace.Set, error) {
		pool, err := condor.NewPool(machines, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return condor.CollectTraces(pool, condor.MonitorConfig{
			Monitors:        cfg.Machines,
			Duration:        duration,
			IncludeCensored: censored,
		})
	}
	long, err := collect(condor.MonthsSeconds(cfg.Months), false)
	if err != nil {
		return nil, err
	}
	short, err := collect(cfg.ShortDays*24*3600, true)
	if err != nil {
		return nil, err
	}

	res := &CensoringResult{Config: cfg}
	costs := markov.Costs{C: studyCTime, R: studyCTime, L: studyCTime}
	simCfg := sim.Config{Costs: costs, CheckpointMB: PaperCheckpointMB}
	// Uncensored strategy fits flow through one cache keyed
	// (machine, strategy) that the machine loop's workers share; the
	// cache single-flights every entry, so each fit runs once however
	// the workers interleave.
	fits := fit.NewCache()

	// key names one (strategy, model) cell.
	type key struct {
		s CensoringStrategy
		m fit.Model
	}
	// outcome is one machine's share of the study, written only by the
	// worker that runs the machine: its short-window observation counts
	// and, in (strategy, model) order, the replays whose fit and
	// simulation succeeded.
	type replay struct {
		k       key
		eff, mb float64
	}
	type outcome struct {
		censObs, totObs int
		replays         []replay
	}
	names := long.Machines()
	outcomes := make([]outcome, len(names))
	forEach(len(names), func(i int) {
		name := names[i]
		longTr := long.Traces[name]
		shortTr, ok := short.Traces[name]
		if !ok || longTr.Len() <= trace.DefaultTrainingSize+10 || shortTr.Len() < 5 {
			return
		}
		trainLong, test, err := longTr.Split(trace.DefaultTrainingSize)
		if err != nil {
			return
		}
		o := &outcomes[i]
		durs, flags := shortTr.Observations()
		for _, f := range flags {
			o.totObs++
			if f {
				o.censObs++
			}
		}

		for si, strategy := range CensoringStrategies {
			for k, model := range fit.Models {
				d, err := fitWithStrategy(fits, name, strategy, model, durs, flags, trainLong)
				if err != nil {
					continue // strategy may be infeasible (e.g. drop leaves nothing)
				}
				lane := (i*len(CensoringStrategies)+si)*len(fit.Models) + k
				run, err := sim.RunFitted(d, model, test, simCfg, cfg.lanes.opts(lane, obs.AttrStr("machine", name)))
				if err != nil {
					continue
				}
				o.replays = append(o.replays,
					replay{key{strategy, model}, run.Result.Efficiency(), run.Result.MBTransferred})
			}
		}
	})
	// Merge in machine order, so every mean adds in the same order
	// however the workers ran.
	effs := make(map[key][]float64)
	mbs := make(map[key][]float64)
	var censObs, totObs int
	for _, o := range outcomes {
		censObs += o.censObs
		totObs += o.totObs
		for _, r := range o.replays {
			effs[r.k] = append(effs[r.k], r.eff)
			mbs[r.k] = append(mbs[r.k], r.mb)
		}
	}
	if totObs > 0 {
		res.CensoredFraction = float64(censObs) / float64(totObs)
	}
	for _, strategy := range CensoringStrategies {
		for _, model := range fit.Models {
			k := key{strategy, model}
			if len(effs[k]) == 0 {
				continue
			}
			res.Cells = append(res.Cells, CensoringCell{
				Strategy:   strategy,
				Model:      model,
				Efficiency: stats.Mean(effs[k]),
				MB:         stats.Mean(mbs[k]),
				Machines:   len(effs[k]),
			})
		}
	}
	if len(res.Cells) == 0 {
		return nil, fmt.Errorf("experiments: censoring study produced no cells; lengthen the windows")
	}
	return res, nil
}

func fitWithStrategy(fits *fit.Cache, machine string, s CensoringStrategy, m fit.Model, durs []float64, flags []bool, trainLong []float64) (dist.Distribution, error) {
	key := machine + "/" + s.String()
	switch s {
	case CensorDrop:
		var kept []float64
		for i, d := range durs {
			if !flags[i] {
				kept = append(kept, d)
			}
		}
		return fits.Fit(key, m, kept)
	case CensorNaive:
		return fits.Fit(key, m, durs)
	case CensorAware:
		// Censoring-aware estimation stays outside the cache, which
		// memoizes the exact-lifetime Fit.
		return fit.FitCensored(m, durs, flags)
	case CensorLongTrain:
		return fits.Fit(key, m, trainLong)
	}
	return nil, fmt.Errorf("experiments: unknown strategy %v", s)
}

// RenderCensoring renders the study as text.
func RenderCensoring(r *CensoringResult) string {
	out := fmt.Sprintf("Censoring sensitivity (extension of §5.3): %g-day window, %.0f%% of observations censored, C=R=%g s\n",
		r.Config.ShortDays, 100*r.CensoredFraction, studyCTime)
	out += fmt.Sprintf("%-18s", "strategy")
	for _, m := range fit.Models {
		out += fmt.Sprintf(" | %-18s", modelHeaders[m])
	}
	out += "\n" + fmt.Sprintf("%-18s", "")
	for range fit.Models {
		out += fmt.Sprintf(" | %8s %9s", "eff", "MB")
	}
	out += "\n"
	for _, s := range CensoringStrategies {
		out += fmt.Sprintf("%-18s", s)
		for _, m := range fit.Models {
			if c, ok := r.Cell(s, m); ok {
				out += fmt.Sprintf(" | %8.3f %9.0f", c.Efficiency, c.MB)
			} else {
				out += fmt.Sprintf(" | %8s %9s", "-", "-")
			}
		}
		out += "\n"
	}
	return out
}
