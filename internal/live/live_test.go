package live

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/condor"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// testbed builds a small pool plus a monitor-collected history for it.
func testbed(t *testing.T, machines int, seed int64) ([]condor.Machine, *trace.Set) {
	t.Helper()
	ms, err := condor.SyntheticPool(condor.SyntheticPoolConfig{Machines: machines, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := condor.NewPool(ms, seed)
	if err != nil {
		t.Fatal(err)
	}
	set, err := condor.CollectTraces(pool, condor.MonitorConfig{
		Monitors: machines,
		Duration: condor.MonthsSeconds(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, set
}

func TestRunCampaignBasics(t *testing.T) {
	machines, history := testbed(t, 20, 3)
	camp, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		CheckpointMB:    500,
		SamplesPerModel: 5,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Samples) != 20 {
		t.Fatalf("samples = %d", len(camp.Samples))
	}
	if camp.LinkName != "campus" {
		t.Errorf("link = %q", camp.LinkName)
	}
	byModel := camp.ByModel()
	for _, m := range fit.Models {
		if len(byModel[m]) != 5 {
			t.Errorf("%v: %d samples, want 5", m, len(byModel[m]))
		}
	}
	for i, s := range camp.Samples {
		if s.SessionSec < 0 {
			t.Errorf("sample %d: negative session %g", i, s.SessionSec)
		}
		if s.Machine == "" {
			t.Errorf("sample %d: no machine", i)
		}
		eff := s.Efficiency()
		if eff < 0 || eff > 1 {
			t.Errorf("sample %d: efficiency %g", i, eff)
		}
		// Time conservation within a session: committed + lost +
		// transfers <= session (heartbeats are free).
		used := s.CommittedWork + s.LostWork + s.TransferSec
		if used > s.SessionSec+1e-6 {
			t.Errorf("sample %d: accounted %g > session %g", i, used, s.SessionSec)
		}
		// Network volume is bounded by completed transfers + at most
		// one partial each way.
		maxMB := float64(s.Checkpoints+2) * 500 * 1.001
		if s.MBMoved > maxMB+500 {
			t.Errorf("sample %d: MB %g exceeds plausible %g", i, s.MBMoved, maxMB)
		}
	}
}

func TestRunCampaignDeterminism(t *testing.T) {
	machines, history := testbed(t, 12, 7)
	run := func() *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 3,
			Seed:            7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Samples {
		if a.Samples[i].SessionSec != b.Samples[i].SessionSec ||
			a.Samples[i].MBMoved != b.Samples[i].MBMoved {
			t.Fatalf("campaign not deterministic at sample %d", i)
		}
	}
}

// TestRunCampaignWireSeries pins the bytes-on-wire series: RunCampaign
// sizes it from the planned span, every completed or partial transfer
// lands in a bin, and the bins are bit-identical across parallel runs
// (integer atomic adds commute, so worker interleaving cannot show).
func TestRunCampaignWireSeries(t *testing.T) {
	machines, history := testbed(t, 12, 7)
	run := func(procs int) *Campaign {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 3,
			Seed:            7,
			WireBins:        32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := run(runtime.GOMAXPROCS(0))
	if a.Wire == nil {
		t.Fatal("WireBins set but Campaign.Wire is nil")
	}
	if got := len(a.Wire.Bins()); got != 32 {
		t.Fatalf("bins = %d, want 32", got)
	}
	// The series total agrees with the per-sample accounting to within
	// rounding (each partial transfer rounds to whole bytes).
	var sampleMB float64
	for _, s := range a.Samples {
		sampleMB += s.MBMoved
	}
	seriesMB := float64(a.Wire.Total()) / ckptnet.MB
	if d := seriesMB - sampleMB; d > 1 || d < -1 {
		t.Errorf("wire series %.2f MB vs samples %.2f MB", seriesMB, sampleMB)
	}
	b := run(1)
	if !bytes.Equal(fmtBins(a.Wire.Bins()), fmtBins(b.Wire.Bins())) {
		t.Fatalf("wire series not deterministic:\n%v\nvs\n%v", a.Wire.Bins(), b.Wire.Bins())
	}
}

// fmtBins renders bins for byte comparison.
func fmtBins(bins []int64) []byte {
	out, _ := json.Marshal(bins)
	return out
}

// TestRunCampaignTraceDeterminism pins the trace contract: one session
// span per sample on pid = sample index+1, with timestamps on the
// campaign's virtual pool clock, byte-identical at any GOMAXPROCS
// (sessions fan out over a worker pool, but each emits on its own pid).
func TestRunCampaignTraceDeterminism(t *testing.T) {
	machines, history := testbed(t, 12, 7)
	render := func(procs int) []byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		tr := obs.NewTracer(obs.TracerOptions{FullFidelity: true})
		_, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 3,
			Seed:            7,
			Tracer:          tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, wide := render(1), render(8)
	if !bytes.Contains(serial, []byte(`"session"`)) ||
		!bytes.Contains(serial, []byte(`"topt"`)) {
		t.Fatalf("trace missing session/topt records: %d bytes", len(serial))
	}
	if !bytes.Equal(serial, wide) {
		t.Error("trace export depends on GOMAXPROCS")
	}
}

func TestRunCampaignWideAreaCostsMore(t *testing.T) {
	machines, history := testbed(t, 25, 11)
	run := func(link ckptnet.Link) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            link,
			SamplesPerModel: 8,
			Seed:            11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	campus := run(ckptnet.CampusLink())
	wan := run(ckptnet.WideAreaLink())
	avgEff := func(c *Campaign) float64 {
		sum := 0.0
		for _, s := range c.Samples {
			sum += s.Efficiency()
		}
		return sum / float64(len(c.Samples))
	}
	ce, we := avgEff(campus), avgEff(wan)
	// Slower transfers must cost efficiency, matching Table 4 (avg
	// ≈0.62-0.73 at C≈110) vs Table 5 (≈0.59-0.66 at C≈475).
	if we >= ce {
		t.Errorf("wide-area efficiency %g not below campus %g", we, ce)
	}
	// Mean measured C should approximate the link calibrations.
	meanC := func(c *Campaign) float64 {
		var sum float64
		var n int
		for _, s := range c.Samples {
			for _, v := range s.MeasuredCs {
				sum += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if mc := meanC(campus); math.Abs(mc-110) > 30 {
		t.Errorf("campus mean C = %g, want ≈110", mc)
	}
	if mw := meanC(wan); math.Abs(mw-475) > 120 {
		t.Errorf("wide-area mean C = %g, want ≈475", mw)
	}
}

func TestRunCampaignErrors(t *testing.T) {
	machines, history := testbed(t, 5, 13)
	base := CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 1,
	}
	c := base
	c.Machines = nil
	if _, err := RunCampaign(c); err == nil {
		t.Error("no machines should error")
	}
	c = base
	c.History = nil
	if _, err := RunCampaign(c); err == nil {
		t.Error("no history should error")
	}
	c = base
	c.Link = nil
	if _, err := RunCampaign(c); err == nil {
		t.Error("no link should error")
	}
	c = base
	c.SamplesPerModel = 0
	if _, err := RunCampaign(c); err == nil {
		t.Error("zero samples should error")
	}
}

func TestValidateAgreesLoosely(t *testing.T) {
	machines, history := testbed(t, 25, 17)
	camp, err := RunCampaign(CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 10,
		Seed:            17,
	})
	if err != nil {
		t.Fatal(err)
	}
	fits, err := NewFits(history)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Validate(camp, fits)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Samples == 0 {
			t.Errorf("%v: no samples", r.Model)
		}
		if r.LiveEfficiency < 0 || r.LiveEfficiency > 1 || r.SimEfficiency < 0 || r.SimEfficiency > 1 {
			t.Errorf("%v: efficiencies out of range: %+v", r.Model, r)
		}
		// §5.3: small discrepancies are expected (variable C/R,
		// censoring), not wild disagreement.
		if math.Abs(r.Delta()) > 0.25 {
			t.Errorf("%v: live %g vs sim %g — divergence too large",
				r.Model, r.LiveEfficiency, r.SimEfficiency)
		}
	}
}

func TestRunCampaignConcurrent(t *testing.T) {
	machines, history := testbed(t, 15, 29)
	run := func(conc int) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 6,
			Concurrency:     conc,
			Seed:            29,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	seq := run(1)
	par := run(5)
	if len(par.Samples) != 24 {
		t.Fatalf("samples = %d", len(par.Samples))
	}
	// Every sample completed with a real session on a real machine.
	for i, s := range par.Samples {
		if s.Machine == "" || s.SessionSec <= 0 {
			t.Errorf("sample %d incomplete: %+v", i, s)
		}
		if e := s.Efficiency(); e < 0 || e > 1 {
			t.Errorf("sample %d efficiency %g", i, e)
		}
	}
	// Model rotation preserved.
	byModel := par.ByModel()
	for _, m := range fit.Models {
		if len(byModel[m]) != 6 {
			t.Errorf("%v: %d samples", m, len(byModel[m]))
		}
	}
	// Concurrency is deterministic too.
	par2 := run(5)
	for i := range par.Samples {
		if par.Samples[i].SessionSec != par2.Samples[i].SessionSec {
			t.Fatalf("concurrent campaign not deterministic at %d", i)
		}
	}
	// Overlapping processes occupy the pool more: the concurrent
	// campaign finishes with samples drawn from at least as many
	// distinct machines as the sequential one touched.
	distinct := func(c *Campaign) int {
		set := map[string]bool{}
		for _, s := range c.Samples {
			set[s.Machine] = true
		}
		return len(set)
	}
	if distinct(par) < distinct(seq)/2 {
		t.Errorf("concurrent campaign used implausibly few machines: %d vs %d",
			distinct(par), distinct(seq))
	}
}

func TestRunCampaignWithForecast(t *testing.T) {
	// The NWS-predicted-cost path must run, stay deterministic, and —
	// on the high-variance wide-area link — schedule with smoother
	// cost estimates than the last-measurement path.
	machines, history := testbed(t, 20, 23)
	run := func(useForecast bool) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            ckptnet.WideAreaLink(),
			SamplesPerModel: 6,
			UseForecast:     useForecast,
			Seed:            23,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fc := run(true)
	fc2 := run(true)
	for i := range fc.Samples {
		if fc.Samples[i].SessionSec != fc2.Samples[i].SessionSec {
			t.Fatalf("forecast campaign not deterministic at %d", i)
		}
	}
	last := run(false)
	avgEff := func(c *Campaign) float64 {
		sum := 0.0
		for _, s := range c.Samples {
			sum += s.Efficiency()
		}
		return sum / float64(len(c.Samples))
	}
	fe, le := avgEff(fc), avgEff(last)
	if fe <= 0 || fe >= 1 || le <= 0 || le >= 1 {
		t.Fatalf("efficiencies out of range: forecast %g, last %g", fe, le)
	}
	// Both estimators should land in the same ballpark; the forecast
	// path must not collapse (it is the paper's described system).
	if math.Abs(fe-le) > 0.2 {
		t.Errorf("forecast path efficiency %g diverges from last-measurement %g", fe, le)
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := Validate(nil, nil); err == nil {
		t.Error("nil campaign should error")
	}
	_, history := testbed(t, 3, 19)
	fits, err := NewFits(history)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(&Campaign{}, fits); err == nil {
		t.Error("empty campaign should error")
	}
	if _, err := Validate(&Campaign{Samples: make([]Sample, 1)}, nil); err == nil {
		t.Error("nil fits should error")
	}
}

func TestRunCampaignChaosResilience(t *testing.T) {
	// The issue's acceptance scenario, virtual-time edition: a
	// 20-session campaign over a link that tears transfers and loses
	// the manager must complete every session — degraded, not aborted —
	// and report nonzero resilience counters.
	machines, history := testbed(t, 20, 31)
	chaos := ckptnet.ChaosLink{
		Inner: ckptnet.CampusLink(),
		Faults: ckptnet.LinkFaultConfig{
			TearProb:   0.20,
			StallProb:  0.10,
			StallSec:   30,
			OutageProb: 0.15,
		},
	}
	run := func(link ckptnet.Link) *Campaign {
		c, err := RunCampaign(CampaignConfig{
			Machines:        machines,
			History:         history,
			Link:            link,
			SamplesPerModel: 5,
			Seed:            31,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	camp := run(chaos)
	if len(camp.Samples) != 20 {
		t.Fatalf("samples = %d, want 20 (no aborted sessions)", len(camp.Samples))
	}
	if camp.LinkName != "campus+chaos" {
		t.Errorf("link = %q", camp.LinkName)
	}
	for i, s := range camp.Samples {
		if s.Machine == "" || s.SessionSec <= 0 {
			t.Errorf("sample %d did not complete: %+v", i, s)
		}
		if e := s.Efficiency(); e < 0 || e > 1 {
			t.Errorf("sample %d efficiency %g", i, e)
		}
		// Time conservation still holds under chaos: committed + lost +
		// transfer time never exceeds the session.
		used := s.CommittedWork + s.LostWork + s.TransferSec
		if used > s.SessionSec+1e-6 {
			t.Errorf("sample %d: accounted %g > session %g", i, used, s.SessionSec)
		}
	}
	retries, torn, fallbacks, backoff := camp.ChaosTotals()
	if torn == 0 {
		t.Error("no torn transfers at TearProb 0.20")
	}
	if retries == 0 || backoff <= 0 {
		t.Errorf("no retry/backoff activity: retries=%d backoff=%g", retries, backoff)
	}
	if fallbacks == 0 {
		t.Error("no schedule fallbacks at OutageProb 0.15")
	}

	// Chaos campaigns are as deterministic as clean ones.
	camp2 := run(chaos)
	for i := range camp.Samples {
		a, b := camp.Samples[i], camp2.Samples[i]
		if a.SessionSec != b.SessionSec || a.Retries != b.Retries ||
			a.Torn != b.Torn || a.Fallbacks != b.Fallbacks || a.BackoffSec != b.BackoffSec {
			t.Fatalf("chaos campaign not deterministic at sample %d", i)
		}
	}

	// A clean link reports zero chaos activity, and injecting faults
	// must not improve efficiency.
	clean := run(ckptnet.CampusLink())
	if r, tn, f, b := clean.ChaosTotals(); r != 0 || tn != 0 || f != 0 || b != 0 {
		t.Errorf("clean campaign has chaos totals: %d %d %d %g", r, tn, f, b)
	}
	avgEff := func(c *Campaign) float64 {
		sum := 0.0
		for _, s := range c.Samples {
			sum += s.Efficiency()
		}
		return sum / float64(len(c.Samples))
	}
	if ce, xe := avgEff(clean), avgEff(camp); xe > ce+0.02 {
		t.Errorf("chaos efficiency %g implausibly above clean %g", xe, ce)
	}
}

// TestRunCampaignGOMAXPROCSDeterminism pins the campaign's parallelism
// contract: because every replay task derives its own RNG stream and
// writes to its own result slot, the campaign is byte-identical no
// matter how many OS threads the worker pool actually gets.
func TestRunCampaignGOMAXPROCSDeterminism(t *testing.T) {
	machines, history := testbed(t, 16, 11)
	cfg := CampaignConfig{
		Machines:        machines,
		History:         history,
		Link:            ckptnet.CampusLink(),
		CheckpointMB:    500,
		SamplesPerModel: 4,
		Concurrency:     3,
		Seed:            11,
	}
	runAt := func(procs int) []byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		c, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := runAt(1)
	parallel := runAt(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("campaign results differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}
