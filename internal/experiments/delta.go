package experiments

import (
	"errors"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// DeltaConfig parameterizes the delta-checkpointing experiment: the
// same live campaign three times with the same seed — full-image
// checkpoints, delta checkpoints with constant-cost scheduling, and
// delta checkpoints with the variable cost curve C(T) driving the
// interval optimizer — so the bytes-on-wire reduction and the
// scheduling effect are each directly measurable.
type DeltaConfig struct {
	// Workload supplies machines and history.
	Workload *Workload
	// Link is the link profile (default campus).
	Link ckptnet.Link
	// SamplesPerModel defaults to 5 (a 20-session campaign).
	SamplesPerModel int
	// DirtyRate is the per-chunk dirtying rate for the delta campaigns
	// (default 0.001: ~17-minute expected chunk lifetime, so typical
	// intervals dirty a minority of the image).
	DirtyRate float64
	// Seed keeps all three campaigns paired.
	Seed int64
	// Tracer, when set, records all three campaigns: full on lanes
	// starting at TracePidBase, delta one TraceCampaignStride up,
	// delta+variable-C two strides up.
	Tracer *obs.Tracer
	// TracePidBase is the first campaign's lane base.
	TracePidBase uint64
	// WireBins sizes the per-campaign bytes-on-wire time series
	// (default 48 bins over the campaign's virtual span).
	WireBins int
}

// defaultDirtyRate is the delta study's per-chunk dirtying rate unless
// configured otherwise.
const defaultDirtyRate = 0.001

// DeltaResult compares the three paired campaigns.
type DeltaResult struct {
	LinkName  string
	DirtyRate float64
	// Full, Delta, and VarCost are the per-model tables of the three
	// campaigns.
	Full, Delta, VarCost *LiveTable
	// Campaign-wide aggregates: mean per-sample efficiency, bandwidth
	// consumption rate, and total megabytes on the wire.
	FullEfficiency, DeltaEfficiency, VarCostEfficiency float64
	FullMBPerHour, DeltaMBPerHour, VarCostMBPerHour    float64
	FullMB, DeltaMB, VarCostMB                         float64
	// DeltaCheckpoints and VarCostCheckpoints count checkpoint
	// transfers that actually shipped as deltas in each delta campaign.
	DeltaCheckpoints, VarCostCheckpoints int
	// Sessions is the number of completed sessions per campaign.
	Sessions int
	// FullWire, DeltaWire and VarCostWire are the three campaigns'
	// bytes-on-wire time series — network overhead vs virtual time,
	// the figure the paper's bandwidth argument is about.
	FullWire, DeltaWire, VarCostWire *obs.ByteSeries
}

// SavingsPct is the delta campaign's bytes-on-wire saving relative to
// full-image checkpointing, in percent.
func (r *DeltaResult) SavingsPct() float64 {
	if r.FullMB <= 0 {
		return 0
	}
	return 100 * (1 - r.DeltaMB/r.FullMB)
}

// VarCostSavingsPct is the variable-cost campaign's saving relative to
// full-image checkpointing, in percent.
func (r *DeltaResult) VarCostSavingsPct() float64 {
	if r.FullMB <= 0 {
		return 0
	}
	return 100 * (1 - r.VarCostMB/r.FullMB)
}

// RunDelta runs the three paired campaigns and aggregates the
// comparison.
func RunDelta(cfg DeltaConfig) (*DeltaResult, error) {
	if cfg.Workload == nil {
		return nil, errors.New("experiments: delta experiment needs a workload")
	}
	if cfg.Link == nil {
		cfg.Link = ckptnet.CampusLink()
	}
	if cfg.SamplesPerModel <= 0 {
		cfg.SamplesPerModel = 5
	}
	if cfg.DirtyRate <= 0 {
		cfg.DirtyRate = defaultDirtyRate
	}
	if cfg.WireBins <= 0 {
		cfg.WireBins = 48
	}

	runOne := func(name string, lane uint64, delta live.DeltaPolicy) (*LiveTable, *live.Campaign, error) {
		return RunLiveTable(name, LiveCampaignConfig{
			Workload:        cfg.Workload,
			Link:            cfg.Link,
			SamplesPerModel: cfg.SamplesPerModel,
			Seed:            cfg.Seed,
			Tracer:          cfg.Tracer,
			TracePidBase:    cfg.TracePidBase + lane*TraceCampaignStride,
			Delta:           delta,
			WireBins:        cfg.WireBins,
		})
	}
	fullTable, fullCamp, err := runOne("full", 0, live.DeltaPolicy{})
	if err != nil {
		return nil, err
	}
	deltaTable, deltaCamp, err := runOne("delta", 1,
		live.DeltaPolicy{Enabled: true, DirtyRate: cfg.DirtyRate})
	if err != nil {
		return nil, err
	}
	varTable, varCamp, err := runOne("delta+variable-C", 2,
		live.DeltaPolicy{Enabled: true, DirtyRate: cfg.DirtyRate, VariableCost: true})
	if err != nil {
		return nil, err
	}

	res := &DeltaResult{
		LinkName:  cfg.Link.Name(),
		DirtyRate: cfg.DirtyRate,
		Full:      fullTable,
		Delta:     deltaTable,
		VarCost:   varTable,
		Sessions:  len(fullCamp.Samples),
	}
	res.FullEfficiency, res.FullMBPerHour, res.FullMB, _ = campaignAggregates(fullCamp)
	res.DeltaEfficiency, res.DeltaMBPerHour, res.DeltaMB, res.DeltaCheckpoints = campaignAggregates(deltaCamp)
	res.VarCostEfficiency, res.VarCostMBPerHour, res.VarCostMB, res.VarCostCheckpoints = campaignAggregates(varCamp)
	res.FullWire = fullCamp.Wire
	res.DeltaWire = deltaCamp.Wire
	res.VarCostWire = varCamp.Wire
	return res, nil
}
