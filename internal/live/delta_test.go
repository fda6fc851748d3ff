package live

import (
	"math"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// totalsOf sums the campaign counters a delta comparison cares about.
func totalsOf(c *Campaign) (mb float64, ckpts, deltas int) {
	for _, s := range c.Samples {
		mb += s.MBMoved
		ckpts += s.Checkpoints
		deltas += s.DeltaCheckpoints
	}
	return
}

// TestRunCampaignDeltaReducesWireBytes pins the ISSUE's acceptance
// criterion at the campaign level: with the same seed and pool, delta
// checkpointing moves strictly fewer megabytes than full-image
// checkpointing, and the savings come from actual delta transfers.
func TestRunCampaignDeltaReducesWireBytes(t *testing.T) {
	machines, history := testbed(t, 16, 11)
	base := CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		CheckpointMB:    500,
		SamplesPerModel: 4,
		Seed:            11,
	}
	full, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	deltaCfg := base
	deltaCfg.Delta = DeltaPolicy{Enabled: true, DirtyRate: 0.001}
	delta, err := RunCampaign(deltaCfg)
	if err != nil {
		t.Fatal(err)
	}

	fullMB, fullCkpts, fullDeltas := totalsOf(full)
	deltaMB, deltaCkpts, deltaDeltas := totalsOf(delta)
	if fullDeltas != 0 {
		t.Errorf("full campaign counted %d delta checkpoints", fullDeltas)
	}
	if fullCkpts == 0 || deltaCkpts == 0 {
		t.Fatalf("degenerate campaigns: %d vs %d checkpoints", fullCkpts, deltaCkpts)
	}
	if deltaDeltas == 0 {
		t.Error("delta campaign shipped no deltas")
	}
	if deltaMB >= fullMB {
		t.Errorf("delta campaign moved %.0f MB, full moved %.0f MB; expected a reduction", deltaMB, fullMB)
	}

	// Work still gets done: sessions commit work at comparable (or
	// better — cheaper checkpoints) efficiency.
	effOf := func(c *Campaign) float64 {
		var work, sess float64
		for _, s := range c.Samples {
			work += s.CommittedWork
			sess += s.SessionSec
		}
		return work / sess
	}
	if effOf(delta) < 0.8*effOf(full) {
		t.Errorf("delta efficiency %.3f collapsed vs full %.3f", effOf(delta), effOf(full))
	}
}

// TestRunCampaignDeltaDeterminism extends the replay contract to the
// delta path: wire sizing is a pure function of the session's work
// history, so two runs of the same config are bit-identical.
func TestRunCampaignDeltaDeterminism(t *testing.T) {
	machines, history := testbed(t, 12, 7)
	run := func(variable bool) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 3,
			Seed:            7,
			Delta:           DeltaPolicy{Enabled: true, VariableCost: variable},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, variable := range []bool{false, true} {
		a, b := run(variable), run(variable)
		for i := range a.Samples {
			if a.Samples[i].MBMoved != b.Samples[i].MBMoved ||
				a.Samples[i].SessionSec != b.Samples[i].SessionSec ||
				a.Samples[i].DeltaCheckpoints != b.Samples[i].DeltaCheckpoints {
				t.Fatalf("variable=%v: campaign not deterministic at sample %d", variable, i)
			}
		}
	}
}

// TestRunCampaignVariableCostSchedules checks the C(T) curve actually
// reaches the optimizer: scheduling with the interval-dependent cost
// changes the chosen intervals relative to constant-cost delta.
func TestRunCampaignVariableCostSchedules(t *testing.T) {
	machines, history := testbed(t, 12, 5)
	run := func(variable bool) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			CheckpointMB:    500,
			SamplesPerModel: 3,
			Seed:            5,
			Delta:           DeltaPolicy{Enabled: true, DirtyRate: 0.001, VariableCost: variable},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	constC, varC := run(false), run(true)
	same := true
	for i := range constC.Samples {
		if constC.Samples[i].Intervals != varC.Samples[i].Intervals ||
			constC.Samples[i].CommittedWork != varC.Samples[i].CommittedWork {
			same = false
			break
		}
	}
	if same {
		t.Error("variable-cost scheduling produced identical campaigns; curve never reached the optimizer")
	}
	// And it must still commit work.
	var work float64
	for _, s := range varC.Samples {
		work += s.CommittedWork
	}
	if work <= 0 {
		t.Error("variable-cost campaign committed no work")
	}
}

func TestRunCampaignVariableCostRequiresDelta(t *testing.T) {
	machines, history := testbed(t, 8, 3)
	_, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 1,
		Seed:            3,
		Delta:           DeltaPolicy{VariableCost: true},
	})
	if err == nil {
		t.Fatal("VariableCost without Enabled should be rejected")
	}
}

// TestEvictionMidDeltaChargesTheDelta pins the eviction accounting for
// delta transfers: a checkpoint interrupted by the owner's reclaim is
// billed for the fraction of the *delta* that crossed the wire, never
// for a fraction of the full image. Each session's interrupted charge
// is what MBMoved holds beyond its completed transfers (the trace
// spans carry those); for a session evicted mid-checkpoint the lost
// work is exactly the window the delta covered, which bounds its size.
func TestEvictionMidDeltaChargesTheDelta(t *testing.T) {
	machines, history := testbed(t, 16, 11)
	const dirtyRate, imageMB = 0.0001, 500.0 // deltas ≈ 10% of the image, so a full-image proration stands out
	tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true, RingCapacity: -1})
	camp, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		CheckpointMB:    imageMB,
		SamplesPerModel: 12,
		Seed:            11,
		Delta:           DeltaPolicy{Enabled: true, DirtyRate: dirtyRate},
		Tracer:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	doneMB := make(map[uint64]float64) // completed transfers per session lane
	recovered := make(map[uint64]bool) // the session's recovery completed
	for _, e := range tr.Events() {
		if e.Name != "transfer.recovery" && e.Name != "transfer.checkpoint" {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "mb" {
				doneMB[e.Pid] += a.Value().(float64)
			}
		}
		if e.Name == "transfer.recovery" {
			recovered[e.Pid] = true
		}
	}
	midDelta := 0
	for i, s := range camp.Samples {
		pid := uint64(i) + 1
		charged := s.MBMoved - doneMB[pid]
		if !recovered[pid] || charged < 1e-9 {
			continue // evicted mid-recovery (a full image) or while computing
		}
		midDelta++
		deltaMB := imageMB * -math.Expm1(-dirtyRate*s.LostWork)
		if limit := deltaMB + 64.0/1024; charged > limit { // + one chunk of rounding
			t.Errorf("sample %d: eviction mid-delta charged %.1f MB, but the delta over %.0f s of work is only %.1f MB",
				i, charged, s.LostWork, deltaMB)
		}
	}
	if midDelta == 0 {
		t.Fatal("no session was evicted mid-delta; pick a seed that exercises the path")
	}
}

// deltaLaws are the availability laws the var-C checks plan against:
// the paper's exponential and Weibull fits and gamma.golden's 2-phase
// hyperexponential.
func deltaLaws() []dist.Distribution {
	return []dist.Distribution{
		dist.NewExponential(1.0 / 9000),
		dist.NewWeibull(0.43, 3409),
		dist.NewHyperexponential([]float64{0.7, 0.3}, []float64{1.0 / 1000, 1.0 / 20000}),
	}
}

// TestDeltaPlanEqualsBill: the C(T) the planner prices a delta with is
// what the meter bills for it. On a noiseless link with a fixed
// per-transfer cost, every checkpoint a var-C session without a
// forecast commits takes exactly the seconds decide's curve gave the
// interval it closes.
func TestDeltaPlanEqualsBill(t *testing.T) {
	link := ckptnet.CampusLink()
	link.Sigma = 0
	for _, d := range deltaLaws() {
		tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true, RingCapacity: -1})
		s := &session{
			cfg: CampaignConfig{
				Link: link, CheckpointMB: 500, HeartbeatSec: 10, Tracer: tr,
				Delta: DeltaPolicy{Enabled: true, DirtyRate: 0.001, VariableCost: true},
			},
			avail:     d,
			pid:       1,
			reclaimAt: 20000,
			bytes:     500 * ckptnet.MB,
		}
		s.run()
		// Without a forecast the curve's anchor is the recovery, so the
		// curve decide built for every interval is the one it builds now.
		cost := s.deltaCost()
		if cost == nil {
			t.Fatalf("%s: no cost curve after the recovery", d.Name())
		}
		var topts []float64
		for _, e := range tr.Events() {
			if e.Name != "topt" {
				continue
			}
			for _, a := range e.Attrs {
				if a.Key == "t_opt" {
					topts = append(topts, a.Value().(float64))
				}
			}
		}
		// MeasuredCs holds the recovery, then one entry per committed
		// checkpoint, each closing the interval the matching decide
		// planned.
		billed := s.MeasuredCs[1:]
		if s.Checkpoints < 10 || s.DeltaCheckpoints != s.Checkpoints || len(billed) != s.Checkpoints || len(topts) < len(billed) {
			t.Fatalf("%s: %d checkpoints (%d deltas), %d measured, %d decisions",
				d.Name(), s.Checkpoints, s.DeltaCheckpoints, len(billed), len(topts))
		}
		for i, got := range billed {
			if want := cost(topts[i]); math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s checkpoint %d: planned C(%g) = %.12g s, billed %.12g s", d.Name(), i, topts[i], want, got)
			}
		}
	}
}

// TestDeltaCostToptAboveFloor: priced with the fixed cost the link
// bills, a delta is never free, so the optimum is an interior point
// and not the search's lower bound — which is what a curve that falls
// to zero with T gives.
func TestDeltaCostToptAboveFloor(t *testing.T) {
	link := ckptnet.CampusLink()
	bytes := int64(500 * ckptnet.MB)
	s := &session{
		cfg:     CampaignConfig{Link: link, Delta: DeltaPolicy{Enabled: true, DirtyRate: 0.001, VariableCost: true}},
		bytes:   bytes,
		hasBase: true,
		fullSec: link.TransferTime(bytes, nil),
	}
	opts := markov.OptimizeOptions{TMin: 1}
	for _, d := range deltaLaws() {
		m := markov.Model{Avail: d, Costs: markov.Costs{C: 110, R: 110, L: 110}, CostFn: s.deltaCost()}
		for _, age := range []float64{0, 110} {
			T, _, err := m.Topt(age, opts)
			if err != nil {
				t.Fatalf("%s age %g: %v", d.Name(), age, err)
			}
			if !(T > opts.TMin) {
				t.Errorf("%s age %g: T_opt = %g, on the search floor %g", d.Name(), age, T, opts.TMin)
			}
		}
	}
}
