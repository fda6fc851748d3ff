package experiments

import (
	"errors"
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// PredictionConfig parameterizes the fault-prediction sweep: a
// predictor-quality × policy × availability-model grid run through the
// parallel engine, comparing proactive checkpointing and migration
// against the paper's reactive baseline.
type PredictionConfig struct {
	// Workers is the parallel job width (default 16).
	Workers int
	// LinkMBps is the shared link capacity (default 5).
	LinkMBps float64
	// CheckpointMB is the image size (default PaperCheckpointMB).
	CheckpointMB float64
	// Hours is the simulated horizon (default 24).
	Hours float64
	// Shape and Scale select the true Weibull availability law
	// (defaults 0.43 / 3409, the paper's pooled fit).
	Shape, Scale float64
	// Seeds is the replicate count per cell (default 5).
	Seeds int
	// Seed is the base seed replicate streams derive from.
	Seed int64
	// MaxProcs bounds the worker pool (default GOMAXPROCS).
	MaxProcs int
	// Policies overrides the predictor/policy axis; empty gets
	// PredictionPolicies().
	Policies []parallel.GridPolicy
	// Tracer, when set, records every cell's engine run.
	Tracer *obs.Tracer

	pidBase uint64 // the grid's first trace lane is pidBase+1
}

// PredictionPolicies is the default predictor-quality × policy axis:
// the reactive baseline, proactive checkpointing under a perfect, a
// good and a poor predictor, and migration under the good predictor.
func PredictionPolicies() []parallel.GridPolicy {
	good := predict.Config{Precision: 0.85, Recall: 0.8, LeadSec: 240}
	poor := predict.Config{Precision: 0.4, Recall: 0.5, LeadSec: 120}
	return []parallel.GridPolicy{
		{Name: "reactive"},
		{Name: "proactive-perfect", Policy: predict.PolicyProactive, Predict: predict.Perfect(300)},
		{Name: "proactive-good", Policy: predict.PolicyProactive, Predict: good},
		{Name: "proactive-poor", Policy: predict.PolicyProactive, Predict: poor},
		{Name: "migrate-good", Policy: predict.PolicyMigrate, Predict: good},
	}
}

// PredictionResult is the sweep output: the raw grid plus the axes
// that shaped it, in row order (model-major, then policy).
type PredictionResult struct {
	Grid     *parallel.Grid
	Models   []parallel.GridModel
	Policies []parallel.GridPolicy
	Workers  int
	Hours    float64
}

// RunPrediction runs the fault-prediction sweep: every distribution
// family the paper fits (exponential, Weibull, 2-phase hyperexponential)
// crossed with every predictor/policy pair, StaggerNone throughout so
// policy effects are not confounded with coordination effects. The
// grid inherits RunGrid's determinism: byte-identical at any MaxProcs
// or GOMAXPROCS.
func RunPrediction(cfg PredictionConfig) (*PredictionResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.LinkMBps <= 0 {
		cfg.LinkMBps = 5
	}
	if cfg.CheckpointMB <= 0 {
		cfg.CheckpointMB = PaperCheckpointMB
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 24
	}
	if cfg.Shape <= 0 {
		cfg.Shape = 0.43
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 3409
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = PredictionPolicies()
	}

	avail := dist.NewWeibull(cfg.Shape, cfg.Scale)
	mean := avail.Mean()
	// The hyperexponential schedule model mixes a short and a long
	// phase around the same mean — the two-phase analogue of the
	// paper's EM fits, without needing a trace to fit against.
	hyper := dist.NewMixture(
		[]float64{0.6, 0.4},
		[]dist.Distribution{
			dist.NewExponential(1 / (0.4 * mean)),
			dist.NewExponential(1 / (1.9 * mean)),
		},
	)
	models := []parallel.GridModel{
		{Name: "exponential", Dist: dist.NewExponential(1 / mean)},
		{Name: "weibull", Dist: avail},
		{Name: "hyperexp2", Dist: hyper},
	}

	grid, err := parallel.RunGrid(parallel.GridConfig{
		Base: parallel.Config{
			Workers:      cfg.Workers,
			Avail:        avail,
			LinkMBps:     cfg.LinkMBps,
			CheckpointMB: cfg.CheckpointMB,
			Duration:     cfg.Hours * 3600,
			Trace:        cfg.Tracer,
			TracePid:     cfg.pidBase,
		},
		Models:   models,
		Staggers: []parallel.StaggerPolicy{parallel.StaggerNone},
		Policies: policies,
		Seeds:    cfg.Seeds,
		Seed:     cfg.Seed,
		MaxProcs: cfg.MaxProcs,
	})
	if err != nil {
		return nil, err
	}
	return &PredictionResult{
		Grid:     grid,
		Models:   models,
		Policies: policies,
		Workers:  cfg.Workers,
		Hours:    cfg.Hours,
	}, nil
}

// Cell returns the grid cell for (model, policy) — with one stagger
// the policy axis is the only within-model dimension.
func (r *PredictionResult) Cell(model, policy string) (*parallel.Cell, error) {
	for i := range r.Grid.Cells {
		c := &r.Grid.Cells[i]
		if c.Model == model && c.Policy == policy {
			return c, nil
		}
	}
	return nil, fmt.Errorf("experiments: no prediction cell (%q, %q)", model, policy)
}

// DominanceViolations lists the models where perfect-predictor
// proactive checkpointing fails to strictly beat the reactive baseline
// on mean lost work — the sweep's acceptance invariant; an empty
// result means the table's headline claim holds.
func (r *PredictionResult) DominanceViolations() ([]string, error) {
	var bad []string
	for _, m := range r.Models {
		reactive, err := r.Cell(m.Name, "reactive")
		if err != nil {
			return nil, err
		}
		perfect, err := r.Cell(m.Name, "proactive-perfect")
		if err != nil {
			return nil, err
		}
		lost := func(res parallel.Result) float64 { return res.LostWork }
		if perfect.Metric(lost).Mean >= reactive.Metric(lost).Mean {
			bad = append(bad, m.Name)
		}
	}
	return bad, nil
}

// RenderPrediction renders the sweep as a fixed-width table: one row
// per (model, policy), comparing efficiency, wasted work and bytes on
// wire against the reactive baseline, plus the predictor's own score
// card (fired/hit/false) and migration volume.
func RenderPrediction(r *PredictionResult) (string, error) {
	if r == nil || r.Grid == nil {
		return "", errors.New("experiments: nil prediction result")
	}
	out := fmt.Sprintf("Fault prediction: %d workers, %g h horizon, %d seeds (±95%% CI)\n\n",
		r.Workers, r.Hours, r.Grid.Seeds)
	out += fmt.Sprintf("%-12s %-18s %16s %12s %12s %8s %6s %6s %8s %12s\n",
		"model", "policy", "efficiency", "lost work s", "network MB",
		"fired", "hit", "false", "migr", "migr MB")
	mean := func(c *parallel.Cell, f func(parallel.Result) float64) float64 {
		return c.Metric(f).Mean
	}
	for _, m := range r.Models {
		for _, gp := range r.Policies {
			name := gp.Name
			if name == "" {
				name = "reactive"
			}
			c, err := r.Cell(m.Name, gp.Name)
			if err != nil {
				return "", err
			}
			eff := c.Efficiency()
			out += fmt.Sprintf("%-12s %-18s %10.3f±%.3f %12.0f %12.0f %8.0f %6.0f %6.0f %8.0f %12.0f\n",
				m.Name, name, eff.Mean, eff.HalfWidth,
				mean(c, func(res parallel.Result) float64 { return res.LostWork }),
				mean(c, func(res parallel.Result) float64 { return res.MBMoved }),
				mean(c, func(res parallel.Result) float64 { return float64(res.Predictions) }),
				mean(c, func(res parallel.Result) float64 { return float64(res.PredHits) }),
				mean(c, func(res parallel.Result) float64 { return float64(res.PredFalse) }),
				mean(c, func(res parallel.Result) float64 { return float64(res.Migrations) }),
				mean(c, func(res parallel.Result) float64 { return res.MigrationMB }),
			)
		}
	}
	bad, err := r.DominanceViolations()
	if err != nil {
		return "", err
	}
	if len(bad) == 0 {
		out += "\nperfect-predictor proactive beats the reactive baseline on lost work in every model\n"
	} else {
		out += fmt.Sprintf("\nWARNING: perfect-predictor proactive did not beat reactive on lost work for: %v\n", bad)
	}
	return out, nil
}
