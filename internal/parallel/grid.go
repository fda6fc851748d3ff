package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/predict"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// GridModel names one availability-model column of a sweep grid.
type GridModel struct {
	Name string
	Dist dist.Distribution
}

// GridPolicy names one predictor/policy column of a sweep grid: a
// predictor quality paired with the policy that acts on it. The zero
// value (disabled predictor, reactive policy) is the paper's baseline.
type GridPolicy struct {
	Name    string
	Policy  predict.Policy
	Predict predict.Config
}

// GridConfig parameterizes RunGrid: the cross product of availability
// models, stagger policies and independent seeds, evaluated against
// one shared base configuration.
type GridConfig struct {
	// Base is the per-cell template; its ScheduleDist, Stagger and
	// Seed fields are overwritten per cell, and its TracePid offsets
	// the cells' trace lanes (flat task t traces on TracePid + t + 1). Every other field — Shards
	// included — flows to every cell unchanged, so a grid sweeps one
	// engine layout across models and policies (and, per the sharding
	// contract, the Shards value cannot change any cell's numbers).
	Base Config
	// Models are the schedule models to compare (Avail in Base stays
	// the true law; each model drives only the schedules).
	Models []GridModel
	// Staggers are the coordination policies to compare.
	Staggers []StaggerPolicy
	// Policies are the predictor/policy pairs to compare. Empty means
	// one implicit reactive baseline with prediction off — the flat
	// task indexing (and therefore every per-replicate seed) is then
	// exactly what it was before the axis existed.
	Policies []GridPolicy
	// Seeds is the number of independent replicates per (model,
	// stagger) cell; default 1. Replicate seeds derive from Seed via a
	// splitmix64 round per flat task index — the same recipe as
	// live.RunCampaign — so every replicate has a decorrelated RNG
	// stream that depends only on (Seed, index), never on which pool
	// worker ran it or when.
	Seeds int
	// Seed is the base seed the per-replicate streams derive from.
	Seed int64
	// MaxProcs bounds the worker pool running cells concurrently;
	// default runtime.GOMAXPROCS(0).
	MaxProcs int
}

// Cell is one (model, policy, stagger) grid cell with its per-seed
// results.
type Cell struct {
	Model string
	// Policy names the GridPolicy this cell ran under ("" when the
	// grid has no policy axis).
	Policy  string
	Stagger StaggerPolicy
	// Results is indexed by replicate (seed index).
	Results []Result
}

// Metric aggregates f over the cell's replicates into a mean and a
// 95% Student-t half-width (zero with fewer than two replicates).
func (c *Cell) Metric(f func(Result) float64) stats.CI {
	xs := make([]float64, len(c.Results))
	for i, r := range c.Results {
		xs[i] = f(r)
	}
	ci, err := stats.MeanCI(xs, 0.95)
	if err != nil {
		return stats.CI{Mean: stats.Mean(xs), Level: 0.95, N: len(xs)}
	}
	return ci
}

// Efficiency is the cell's mean efficiency with its 95% CI.
func (c *Cell) Efficiency() stats.CI {
	return c.Metric(func(r Result) float64 { return r.Efficiency })
}

// Grid is the result of RunGrid, cells ordered model-major, then
// policy, then stagger — the row order of the ckpt-parallel table.
type Grid struct {
	Cells []Cell
	Seeds int
}

// gridSeed derives the private RNG seed of flat task index idx from
// the grid seed via a splitmix64 round (the live.RunCampaign recipe),
// decorrelating replicate streams from each other and from the base
// seed's own sequence.
func gridSeed(seed int64, idx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RunGrid evaluates every (model, stagger, seed) cell of the grid on a
// bounded worker pool. Each model's checkpoint schedule is built once,
// sequentially, and shared read-only by all of that model's cells;
// each replicate then simulates on its own splitmix64-derived RNG
// stream and writes into its preallocated slot, so the returned grid
// is byte-identical for a fixed GridConfig at any GOMAXPROCS or
// MaxProcs setting.
func RunGrid(cfg GridConfig) (*Grid, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("parallel: grid needs at least one model")
	}
	if len(cfg.Staggers) == 0 {
		return nil, errors.New("parallel: grid needs at least one stagger policy")
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	maxProcs := cfg.MaxProcs
	if maxProcs <= 0 {
		maxProcs = runtime.GOMAXPROCS(0)
	}

	// An empty policy axis degenerates to one implicit reactive
	// baseline so the flat task indexing — and every derived seed —
	// matches the pre-axis grid exactly.
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []GridPolicy{{}}
	}
	for _, gp := range policies {
		if err := gp.Predict.Validate(); err != nil {
			return nil, fmt.Errorf("parallel: grid policy %q: %w", gp.Name, err)
		}
	}

	// Validate once up front with the first model so a broken Base
	// surfaces as one error instead of a per-cell failure race.
	scheds := make([]*markov.Schedule, len(cfg.Models))
	for i, m := range cfg.Models {
		if m.Dist == nil {
			return nil, fmt.Errorf("parallel: grid model %q has no distribution", m.Name)
		}
		c := cfg.Base
		c.ScheduleDist = m.Dist
		if err := c.validate(); err != nil {
			return nil, err
		}
		// The build traces on the lane of the model's first task.
		c.TracePid = cfg.Base.TracePid + uint64(i*len(policies)*len(cfg.Staggers)*cfg.Seeds) + 1
		scheds[i] = scheduleFor(c)
	}

	g := &Grid{Seeds: cfg.Seeds}
	for _, m := range cfg.Models {
		for _, gp := range policies {
			for _, pol := range cfg.Staggers {
				g.Cells = append(g.Cells, Cell{
					Model:   m.Name,
					Policy:  gp.Name,
					Stagger: pol,
					Results: make([]Result, cfg.Seeds),
				})
			}
		}
	}

	nTasks := len(g.Cells) * cfg.Seeds
	if maxProcs > nTasks {
		maxProcs = nTasks
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	for p := 0; p < maxProcs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				task := int(next.Add(1)) - 1
				if task >= nTasks {
					return
				}
				ci, rep := task/cfg.Seeds, task%cfg.Seeds
				pi := (ci / len(cfg.Staggers)) % len(policies)
				mi := ci / (len(cfg.Staggers) * len(policies))
				c := cfg.Base
				c.ScheduleDist = cfg.Models[mi].Dist
				c.Stagger = g.Cells[ci].Stagger
				c.Predict = policies[pi].Predict
				c.Policy = policies[pi].Policy
				c.Seed = gridSeed(cfg.Seed, task)
				// One trace lane per flat task: pid depends only on the
				// task index, and each engine emits single-threaded, so
				// the sorted export is byte-identical at any MaxProcs.
				c.TracePid = cfg.Base.TracePid + uint64(task) + 1
				r, err := runScheduled(c, scheds[mi])
				if err != nil {
					errOnce.Do(func() { runErr = err })
					continue
				}
				g.Cells[ci].Results[rep] = r
			}
		}()
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return g, nil
}
