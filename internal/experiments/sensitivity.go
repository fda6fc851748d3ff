package experiments

import (
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/core"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// SensitivityConfig parameterizes the parameter-sensitivity study —
// §5.2 raises exactly this concern: "if the models we use are
// sensitive to inaccuracies in the parameters supplied to them, the
// simulation results could be misleading."
type SensitivityConfig struct {
	// Shape, Scale, N: the generating Weibull trace (defaults: the
	// paper's 0.43 / 3409 / 5000).
	Shape, Scale float64
	N            int
	// Perturbations are the relative parameter errors to test.
	// Default {0.10, 0.25, 0.50}.
	Perturbations []float64
	// Seed drives trace generation.
	Seed int64

	lanes buildLanes // schedule-build trace lanes, one per build in order
}

func (c *SensitivityConfig) setDefaults() {
	if c.Shape <= 0 {
		c.Shape = 0.43
	}
	if c.Scale <= 0 {
		c.Scale = 3409
	}
	if c.N <= 0 {
		c.N = 5000
	}
	if len(c.Perturbations) == 0 {
		c.Perturbations = []float64{0.10, 0.25, 0.50}
	}
}

// SensitivityCell reports, for one model at one perturbation level,
// the worst efficiency over all single-parameter perturbations of the
// fitted model (each parameter scaled by 1±p in turn).
type SensitivityCell struct {
	Model        fit.Model
	Perturbation float64
	// Baseline is the unperturbed fitted model's efficiency.
	Baseline float64
	// Worst is the minimum efficiency across perturbed variants;
	// WorstParam and WorstDir identify the offending parameter.
	Worst      float64
	WorstParam int
	WorstDir   float64 // +p or -p
}

// Loss is the efficiency sacrificed to the worst perturbation.
func (c SensitivityCell) Loss() float64 { return c.Baseline - c.Worst }

// SensitivityResult is the full grid.
type SensitivityResult struct {
	Config SensitivityConfig
	Cells  []SensitivityCell
}

// Cell looks up one entry.
func (r *SensitivityResult) Cell(m fit.Model, p float64) (SensitivityCell, bool) {
	for _, c := range r.Cells {
		if c.Model == m && c.Perturbation == p {
			return c, true
		}
	}
	return SensitivityCell{}, false
}

// RunSensitivity fits each model family to the training prefix of a
// known-truth trace, then perturbs every fitted parameter one at a
// time by ±p and replays the full trace under each perturbed schedule,
// reporting the worst efficiency per (model, p). Rate-like and
// weight-like parameters are perturbed multiplicatively; mixture
// weights are renormalized by the distribution constructor.
func RunSensitivity(cfg SensitivityConfig) (*SensitivityResult, error) {
	cfg.setDefaults()
	truth := dist.NewWeibull(cfg.Shape, cfg.Scale)
	tr, err := trace.Generate(trace.GenerateOptions{
		Machine: "sensitivity",
		N:       cfg.N,
		Avail:   truth,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	durations := tr.Durations()
	train := durations[:trace.DefaultTrainingSize]
	costs := markov.Costs{C: studyCTime, R: studyCTime, L: studyCTime}
	simCfg := sim.Config{Costs: costs, CheckpointMB: PaperCheckpointMB}

	res := &SensitivityResult{Config: cfg}
	builds := 0 // the next build's lane index
	build := func() markov.ScheduleOptions {
		builds++
		return cfg.lanes.opts(builds-1, obs.AttrStr("machine", tr.Machine))
	}
	// All models share one training prefix; the cache keys it once so a
	// future parallel variant of the perturbation grid keeps the
	// fit-once discipline for free.
	fits := fit.NewCache()
	for _, model := range fit.Models {
		fitted, err := fits.Fit("train", model, train)
		if err != nil {
			return nil, fmt.Errorf("experiments: sensitivity fit %v: %w", model, err)
		}
		_, params, err := core.ParamsOf(fitted)
		if err != nil {
			return nil, err
		}
		base, err := sim.RunFitted(fitted, model, durations, simCfg, build())
		if err != nil {
			return nil, fmt.Errorf("experiments: sensitivity baseline %v: %w", model, err)
		}
		baseline := base.Result.Efficiency()
		for _, p := range cfg.Perturbations {
			cell := SensitivityCell{
				Model: model, Perturbation: p,
				Baseline: baseline, Worst: baseline, WorstParam: -1,
			}
			for i := range params {
				for _, dir := range []float64{+p, -p} {
					perturbed := make([]float64, len(params))
					copy(perturbed, params)
					perturbed[i] *= 1 + dir
					d, err := core.DistFromParams(model, perturbed)
					if err != nil {
						continue // perturbation left the family's domain
					}
					// Degenerate schedule: total failure to make progress
					// counts as zero efficiency.
					eff := 0.0
					if run, err := sim.RunFitted(d, model, durations, simCfg, build()); err == nil {
						eff = run.Result.Efficiency()
					}
					if eff < cell.Worst {
						cell.Worst = eff
						cell.WorstParam = i
						cell.WorstDir = dir
					}
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// RenderSensitivity renders the study as text.
func RenderSensitivity(r *SensitivityResult) string {
	out := fmt.Sprintf("Parameter sensitivity (§5.2 concern): Weibull(%g, %g) trace, C=R=%g s\n",
		r.Config.Shape, r.Config.Scale, studyCTime)
	out += fmt.Sprintf("%-14s %10s", "model", "baseline")
	for _, p := range r.Config.Perturbations {
		out += fmt.Sprintf("  worst@±%-3.0f%%", 100*p)
	}
	out += "\n"
	for _, m := range fit.Models {
		first := true
		for _, p := range r.Config.Perturbations {
			c, ok := r.Cell(m, p)
			if !ok {
				continue
			}
			if first {
				out += fmt.Sprintf("%-14s %10.3f", modelHeaders[m], c.Baseline)
				first = false
			}
			out += fmt.Sprintf("  %11.3f", c.Worst)
		}
		out += "\n"
	}
	return out
}
