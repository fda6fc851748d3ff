package experiments

import (
	"errors"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/predict"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// LiveRow is one row of Table 4 or Table 5: per-model aggregates of a
// live campaign.
type LiveRow struct {
	Model fit.Model
	// AvgEfficiency is the mean per-sample efficiency.
	AvgEfficiency float64
	// TotalTime is the summed session time (seconds).
	TotalTime float64
	// MBUsed is the summed network volume (megabytes).
	MBUsed float64
	// MBPerHour is MBUsed per hour of TotalTime.
	MBPerHour float64
	// Samples is the run count.
	Samples int
}

// LiveTable is a rendered live-experiment table plus campaign
// metadata.
type LiveTable struct {
	Name string
	// MeanC is the campaign-wide mean measured transfer cost, the
	// number that picks which simulation row (Table 1/3) each live
	// table is comparable to (≈110 s campus, ≈475 s wide-area).
	MeanC float64
	Rows  []LiveRow
}

// LiveCampaignConfig parameterizes Tables 4 and 5.
type LiveCampaignConfig struct {
	// Workload supplies machines and history.
	Workload *Workload
	// Link selects the manager placement: ckptnet.CampusLink() for
	// Table 4, ckptnet.WideAreaLink() for Table 5.
	Link ckptnet.Link
	// SamplesPerModel defaults to 85, the ballpark of the paper's
	// Table 4 sample sizes.
	SamplesPerModel int
	// Concurrency keeps that many test processes in flight (default 1,
	// the sequential protocol; the paper's total times suggest ~4
	// overlapping processes, at the cost of noisier per-model
	// aggregates).
	Concurrency int
	// Seed makes the campaign deterministic.
	Seed int64
	// Tracer, when set, passes through to live.CampaignConfig: one
	// session span per sample on pid = TracePidBase + index + 1.
	Tracer *obs.Tracer
	// TracePidBase separates this campaign's trace lanes from other
	// campaigns sharing the tracer (use multiples of TraceCampaignStride).
	TracePidBase uint64
	// Predict and Policy enable the fault predictor for every session
	// of the campaign (both pass through to live.CampaignConfig).
	Predict predict.Config
	Policy  predict.Policy
	// Delta enables content-addressed delta checkpointing for every
	// session of the campaign (passes through to live.CampaignConfig).
	Delta live.DeltaPolicy
	// WireBins, when positive, records the campaign's bytes-on-wire as
	// a time series with this many bins (returned on Campaign.Wire).
	WireBins int
}

// TraceCampaignStride is the pid-lane stride callers should leave
// between campaigns that share one tracer; it bounds a campaign to
// 65535 samples, far above any paper table.
const TraceCampaignStride = 1 << 16

// RunLiveTable runs one live campaign and aggregates it into table
// rows. It also returns the raw campaign for validation.
func RunLiveTable(name string, cfg LiveCampaignConfig) (*LiveTable, *live.Campaign, error) {
	if cfg.Workload == nil {
		return nil, nil, errors.New("experiments: live table needs a workload")
	}
	if cfg.SamplesPerModel <= 0 {
		cfg.SamplesPerModel = 85
	}
	camp, err := live.RunCampaign(live.CampaignConfig{
		Machines:        cfg.Workload.Machines,
		History:         cfg.Workload.History,
		Fits:            cfg.Workload.fits,
		Link:            cfg.Link,
		CheckpointMB:    PaperCheckpointMB,
		SamplesPerModel: cfg.SamplesPerModel,
		Concurrency:     cfg.Concurrency,
		Seed:            cfg.Seed,
		Tracer:          cfg.Tracer,
		TracePidBase:    cfg.TracePidBase,
		Predict:         cfg.Predict,
		Policy:          cfg.Policy,
		Delta:           cfg.Delta,
		WireBins:        cfg.WireBins,
	})
	if err != nil {
		return nil, nil, err
	}
	table := &LiveTable{Name: name}
	var allC []float64
	byModel := camp.ByModel()
	for _, m := range fit.Models {
		samples := byModel[m]
		if len(samples) == 0 {
			continue
		}
		var effs []float64
		row := LiveRow{Model: m, Samples: len(samples)}
		for _, s := range samples {
			effs = append(effs, s.Efficiency())
			row.TotalTime += s.SessionSec
			row.MBUsed += s.MBMoved
			allC = append(allC, s.MeasuredCs...)
		}
		row.AvgEfficiency = stats.Mean(effs)
		if row.TotalTime > 0 {
			row.MBPerHour = row.MBUsed / (row.TotalTime / 3600)
		}
		table.Rows = append(table.Rows, row)
	}
	if len(allC) > 0 {
		table.MeanC = stats.Mean(allC)
	}
	return table, camp, nil
}

// ValidationResult pairs the §5.3 validation rows with the campaign
// they validate.
type ValidationResult struct {
	LinkName string
	Rows     []live.ValidationRow
}

// RunValidation replays a live campaign through the simulator.
func RunValidation(w *Workload, camp *live.Campaign) (*ValidationResult, error) {
	if w == nil || camp == nil {
		return nil, errors.New("experiments: validation needs a workload and a campaign")
	}
	fits := w.fits
	if fits == nil {
		var err error
		if fits, err = live.NewFits(w.History); err != nil {
			return nil, err
		}
	}
	rows, err := live.Validate(camp, fits)
	if err != nil {
		return nil, err
	}
	return &ValidationResult{LinkName: camp.LinkName, Rows: rows}, nil
}

// ChaosConfig parameterizes the fault-injected live campaign the
// chaos study runs: the same campaign twice, once over the clean
// link and once under fault injection, so the resilience layer's
// overhead is directly measurable.
type ChaosConfig struct {
	// Workload supplies machines and history.
	Workload *Workload
	// Link is the clean link profile (default campus).
	Link ckptnet.Link
	// Faults selects the injected fault mix. The zero value gets a
	// representative mix: 10% torn transfers, 10% manager outages, and
	// occasional 30 s stalls.
	Faults ckptnet.LinkFaultConfig
	// SamplesPerModel defaults to 5 (a 20-session campaign, the
	// acceptance scenario's size).
	SamplesPerModel int
	// Seed makes both campaigns deterministic and keeps them paired.
	Seed int64
	// Tracer, when set, records all three campaigns: the clean twin on
	// lanes starting at TracePidBase, the fault-injected one a
	// TraceCampaignStride above it, the prediction-enabled one two
	// strides up.
	Tracer *obs.Tracer
	// TracePidBase is the first campaign's lane base.
	TracePidBase uint64
	// Predict is the predictor quality of the third, prediction-enabled
	// chaos campaign. The zero value gets a representative good
	// predictor (precision 0.85, recall 0.8, 240 s lead).
	Predict predict.Config
	// Policy is the third campaign's prediction policy (default
	// migrate, the paper's minimum-overhead response).
	Policy predict.Policy
}

// ChaosResult compares a clean campaign against its fault-injected
// twin and a prediction-enabled triplet.
type ChaosResult struct {
	LinkName string
	// Clean and Chaos are the per-model tables of the two campaigns;
	// Predict is the third campaign — the same fault-injected link with
	// the fault predictor driving the Policy below.
	Clean, Chaos, Predict *LiveTable
	// PredictConfig and Policy record what the third campaign ran.
	PredictConfig predict.Config
	Policy        predict.Policy
	// CleanEfficiency and ChaosEfficiency are campaign-wide mean
	// per-sample efficiencies; PredictEfficiency is the third
	// campaign's.
	CleanEfficiency, ChaosEfficiency, PredictEfficiency float64
	// CleanMBPerHour and ChaosMBPerHour are campaign-wide bandwidth
	// consumption rates; PredictMBPerHour is the third campaign's.
	CleanMBPerHour, ChaosMBPerHour, PredictMBPerHour float64
	// Retries, Torn, and Fallbacks are the chaos campaign's resilience
	// totals; BackoffSec is total virtual time spent waiting between
	// retries.
	Retries, Torn, Fallbacks int
	BackoffSec               float64
	// Ledger is the third campaign's predictor score card: alarms,
	// hits and misses, and its completed prediction-triggered
	// migrations with the bytes they moved.
	predict.Ledger
	// Sessions is the number of completed sessions in each campaign.
	Sessions int
}

// EfficiencyDelta is chaos minus clean efficiency (expected negative:
// injected faults cost committed work).
func (r *ChaosResult) EfficiencyDelta() float64 {
	return r.ChaosEfficiency - r.CleanEfficiency
}

// BandwidthDelta is chaos minus clean MB/hour.
func (r *ChaosResult) BandwidthDelta() float64 {
	return r.ChaosMBPerHour - r.CleanMBPerHour
}

// defaultFaults and defaultPredictor are the chaos study's fault mix
// and predictor quality unless configured otherwise.
var (
	defaultFaults    = ckptnet.LinkFaultConfig{TearProb: 0.10, StallProb: 0.05, StallSec: 30, OutageProb: 0.10}
	defaultPredictor = predict.Config{Precision: 0.85, Recall: 0.8, LeadSec: 240}
)

// RunChaos runs the paired clean/fault-injected campaigns and reports
// the overhead and bandwidth deltas plus the resilience totals.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Workload == nil {
		return nil, errors.New("experiments: chaos experiment needs a workload")
	}
	if cfg.Link == nil {
		cfg.Link = ckptnet.CampusLink()
	}
	if cfg.SamplesPerModel <= 0 {
		cfg.SamplesPerModel = 5
	}
	if cfg.Faults == (ckptnet.LinkFaultConfig{}) {
		cfg.Faults = defaultFaults
	}
	if !cfg.Predict.Enabled() {
		cfg.Predict = defaultPredictor
		if cfg.Policy == predict.PolicyReactive {
			cfg.Policy = predict.PolicyMigrate
		}
	}
	// The three campaigns share placements and seed, one lane block each.
	runOne := func(name string, lane uint64, link ckptnet.Link, pred predict.Config, policy predict.Policy) (*LiveTable, *live.Campaign, error) {
		return RunLiveTable(name, LiveCampaignConfig{
			Workload:        cfg.Workload,
			Link:            link,
			SamplesPerModel: cfg.SamplesPerModel,
			Seed:            cfg.Seed,
			Tracer:          cfg.Tracer,
			TracePidBase:    cfg.TracePidBase + lane*TraceCampaignStride,
			Predict:         pred,
			Policy:          policy,
		})
	}
	chaosLink := ckptnet.ChaosLink{Inner: cfg.Link, Faults: cfg.Faults}
	cleanTable, cleanCamp, err := runOne("clean", 0, cfg.Link, predict.Config{}, predict.PolicyReactive)
	if err != nil {
		return nil, err
	}
	chaosTable, chaosCamp, err := runOne("chaos", 1, chaosLink, predict.Config{}, predict.PolicyReactive)
	if err != nil {
		return nil, err
	}
	predictTable, predictCamp, err := runOne("chaos+predict", 2, chaosLink, cfg.Predict, cfg.Policy)
	if err != nil {
		return nil, err
	}

	res := &ChaosResult{
		LinkName:      cfg.Link.Name(),
		Clean:         cleanTable,
		Chaos:         chaosTable,
		Predict:       predictTable,
		PredictConfig: cfg.Predict,
		Policy:        cfg.Policy,
		Sessions:      len(chaosCamp.Samples),
	}
	res.Retries, res.Torn, res.Fallbacks, res.BackoffSec = chaosCamp.ChaosTotals()
	res.CleanEfficiency, res.CleanMBPerHour, _, _ = campaignAggregates(cleanCamp)
	res.ChaosEfficiency, res.ChaosMBPerHour, _, _ = campaignAggregates(chaosCamp)
	res.PredictEfficiency, res.PredictMBPerHour, _, _ = campaignAggregates(predictCamp)
	res.Ledger = predictCamp.PredictionTotals()
	return res, nil
}

// campaignAggregates computes the campaign-wide mean efficiency,
// MB/hour, bytes on wire (megabytes) and delta-checkpoint count.
func campaignAggregates(c *live.Campaign) (eff, mbPerHour, mb float64, deltas int) {
	var effs []float64
	var sec float64
	for _, s := range c.Samples {
		effs = append(effs, s.Efficiency())
		mb += s.MBMoved
		sec += s.SessionSec
		deltas += s.DeltaCheckpoints
	}
	if len(effs) > 0 {
		eff = stats.Mean(effs)
	}
	if sec > 0 {
		mbPerHour = mb / (sec / 3600)
	}
	return eff, mbPerHour, mb, deltas
}
