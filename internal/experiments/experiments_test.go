package experiments

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// sharedWorkload is built once; experiments tests are read-only users.
var sharedWorkload *Workload

func workload(t *testing.T) *Workload {
	t.Helper()
	if sharedWorkload == nil {
		w, err := NewWorkload(WorkloadConfig{
			Machines: 30,
			Months:   8,
			Seed:     2005,
		})
		if err != nil {
			t.Fatal(err)
		}
		sharedWorkload = w
	}
	return sharedWorkload
}

func TestNewWorkloadBasics(t *testing.T) {
	w := workload(t)
	if len(w.Machines) != 30 {
		t.Fatalf("machines = %d", len(w.Machines))
	}
	if len(w.Data) == 0 {
		t.Fatal("no machines passed the filter")
	}
	for _, d := range w.Data {
		if len(d.Train) != 25 {
			t.Errorf("%s: train size %d", d.Machine, len(d.Train))
		}
		if len(d.Test) < 35 {
			t.Errorf("%s: test size %d below MinRecords-25", d.Machine, len(d.Test))
		}
	}
}

func TestNewWorkloadTooShortCampaign(t *testing.T) {
	_, err := NewWorkload(WorkloadConfig{Machines: 3, Months: 0.001, Seed: 1})
	if err == nil {
		t.Error("microscopic campaign should produce no usable traces")
	}
}

func TestRunSweepShapes(t *testing.T) {
	w := workload(t)
	s, err := RunSweep(w, []float64{50, 500}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CTimes) != 2 || len(s.Machines) != len(w.Data) {
		t.Fatalf("sweep dims: %d ctimes, %d machines", len(s.CTimes), len(s.Machines))
	}
	for _, m := range fit.Models {
		for ci := range s.CTimes {
			for mi := range s.Machines {
				eff := s.Efficiency[m][ci][mi]
				if eff < 0 || eff > 1 {
					t.Errorf("%v C=%g machine %d: efficiency %g", m, s.CTimes[ci], mi, eff)
				}
				if mb := s.MB[m][ci][mi]; mb < 0 {
					t.Errorf("%v: negative MB %g", m, mb)
				}
			}
		}
	}

	// Paper shape 1: efficiency decreases as checkpoints get costlier.
	for _, m := range fit.Models {
		e50 := stats.Mean(s.Efficiency[m][0])
		e500 := stats.Mean(s.Efficiency[m][1])
		if e500 >= e50 {
			t.Errorf("%v: efficiency did not fall with C (%g -> %g)", m, e50, e500)
		}
	}
	// Paper shape 2: bandwidth falls with C (fewer checkpoints fit).
	for _, m := range fit.Models {
		b50 := stats.Mean(s.MB[m][0])
		b500 := stats.Mean(s.MB[m][1])
		if b500 >= b50 {
			t.Errorf("%v: bandwidth did not fall with C (%g -> %g)", m, b50, b500)
		}
	}
	// Paper headline: the 2-phase hyperexponential consumes
	// substantially less bandwidth than the exponential at large C.
	exp500 := stats.Mean(s.MB[fit.ModelExponential][1])
	hyp500 := stats.Mean(s.MB[fit.ModelHyperexp2][1])
	if hyp500 >= exp500 {
		t.Errorf("hyperexp2 bandwidth %g not below exponential %g at C=500", hyp500, exp500)
	}
	// And the efficiencies stay comparable (paper: small differences).
	expEff := stats.Mean(s.Efficiency[fit.ModelExponential][1])
	hypEff := stats.Mean(s.Efficiency[fit.ModelHyperexp2][1])
	if math.Abs(expEff-hypEff) > 0.15 {
		t.Errorf("efficiency gap too large: exp %g vs hyp2 %g", expEff, hypEff)
	}

	// Tables build from the sweep.
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{t1, t3} {
		for _, m := range fit.Models {
			if len(tab.Cells[m]) != 2 {
				t.Fatalf("%s: wrong cell count", tab.Name)
			}
			for ci, cell := range tab.Cells[m] {
				if cell.CI.HalfWidth <= 0 || cell.CI.N != len(w.Data) {
					t.Errorf("%s %v C=%g: bad CI %+v", tab.Name, m, tab.CTimes[ci], cell.CI)
				}
				// Letters must be consistent: a listed model's mean is
				// strictly below this cell's mean.
				for _, other := range cell.Smaller {
					otherMean := tab.Cells[other][ci].CI.Mean
					if otherMean >= cell.CI.Mean {
						t.Errorf("%s %v C=%g: letter %v inconsistent (%g >= %g)",
							tab.Name, m, tab.CTimes[ci], other, otherMean, cell.CI.Mean)
					}
				}
			}
		}
	}

	// Figures carry the same means.
	f3 := s.Figure3()
	if len(f3) != 4 || len(f3[0].Mean) != 2 {
		t.Fatalf("figure3 dims wrong")
	}
	for _, series := range f3 {
		for ci, mean := range series.Mean {
			if math.Abs(mean-t1.Cells[series.Model][ci].CI.Mean) > 1e-12 {
				t.Errorf("figure3 and table1 disagree for %v", series.Model)
			}
		}
	}
	if len(s.Figure4()) != 4 {
		t.Error("figure4 missing series")
	}

	// Renderers produce plausible text.
	txt := RenderTable(t1, 3)
	if !strings.Contains(txt, "CTime") || !strings.Contains(txt, "±") {
		t.Errorf("rendered table 1:\n%s", txt)
	}
	fig := RenderFigure("Figure 3", s.CTimes, f3, 3)
	if !strings.Contains(fig, "Exp.") {
		t.Errorf("rendered figure:\n%s", fig)
	}
	csv := FigureCSV(s.CTimes, f3)
	if !strings.HasPrefix(csv, "ctime,exponential,weibull,hyperexp2,hyperexp3\n") {
		t.Errorf("figure CSV header wrong:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != len(s.CTimes)+1 {
		t.Errorf("figure CSV rows = %d, want %d", got, len(s.CTimes)+1)
	}
}

func TestRunTable2(t *testing.T) {
	res, err := RunTable2(Table2Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Efficiency <= 0 || c.Efficiency >= 1 {
			t.Errorf("%v C=%g all=%v: efficiency %g", c.Model, c.CTime, c.FitOnAll, c.Efficiency)
		}
	}
	// Weibull uses the true model, so its two fit-size columns match.
	for _, ct := range []float64{50, 500} {
		all, _ := res.Cell(fit.ModelWeibull, ct, true)
		f25, _ := res.Cell(fit.ModelWeibull, ct, false)
		if all.Efficiency != f25.Efficiency {
			t.Errorf("weibull truth cells differ at C=%g: %g vs %g", ct, all.Efficiency, f25.Efficiency)
		}
	}
	// Paper shape: every model lands near the optimal Weibull — model
	// mismatch costs only a few points of efficiency.
	for _, ct := range []float64{50, 500} {
		truth, _ := res.Cell(fit.ModelWeibull, ct, true)
		for _, m := range fit.Models {
			for _, all := range []bool{true, false} {
				cell, ok := res.Cell(m, ct, all)
				if !ok {
					t.Fatalf("missing cell %v C=%g all=%v", m, ct, all)
				}
				if truth.Efficiency-cell.Efficiency > 0.08 {
					t.Errorf("%v C=%g all=%v: %g lags truth %g by more than 8 points",
						m, ct, all, cell.Efficiency, truth.Efficiency)
				}
			}
		}
	}
	// C=50 efficiencies dominate C=500 ones.
	e50, _ := res.Cell(fit.ModelExponential, 50, true)
	e500, _ := res.Cell(fit.ModelExponential, 500, true)
	if e500.Efficiency >= e50.Efficiency {
		t.Error("efficiency should fall from C=50 to C=500")
	}
	txt := RenderTable2(res)
	if !strings.Contains(txt, "C=500 F25") {
		t.Errorf("rendered table 2:\n%s", txt)
	}
}

func TestRunSensitivityStudy(t *testing.T) {
	res, err := RunSensitivity(SensitivityConfig{N: 1500, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 12 { // 4 models × 3 perturbation levels
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Baseline <= 0 || c.Baseline >= 1 {
			t.Errorf("%v: baseline %g", c.Model, c.Baseline)
		}
		// Worst-case never exceeds baseline, and losses stay bounded
		// (the paper's schedules are robust to parameter error).
		if c.Worst > c.Baseline {
			t.Errorf("%v@%g: worst %g above baseline %g", c.Model, c.Perturbation, c.Worst, c.Baseline)
		}
		if c.Loss() > 0.15 {
			t.Errorf("%v@%g: implausibly large loss %g", c.Model, c.Perturbation, c.Loss())
		}
	}
	// Losses grow (weakly) with the perturbation magnitude.
	for _, m := range fit.Models {
		c10, _ := res.Cell(m, 0.10)
		c50, _ := res.Cell(m, 0.50)
		if c50.Worst > c10.Worst+1e-9 {
			t.Errorf("%v: worst at ±50%% (%g) better than at ±10%% (%g)", m, c50.Worst, c10.Worst)
		}
	}
	out := RenderSensitivity(res)
	if !strings.Contains(out, "baseline") {
		t.Errorf("rendered sensitivity:\n%s", out)
	}
}

func TestRunCensoringStudy(t *testing.T) {
	res, err := RunCensoring(CensoringConfig{Machines: 25, ShortDays: 0.5, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	if res.CensoredFraction <= 0 || res.CensoredFraction > 0.5 {
		t.Errorf("censored fraction = %g", res.CensoredFraction)
	}
	for _, c := range res.Cells {
		if c.Efficiency <= 0 || c.Efficiency >= 1 || c.MB <= 0 || c.Machines == 0 {
			t.Errorf("bad cell %+v", c)
		}
	}
	// The reference (18-month training) must beat every short-window
	// strategy on efficiency for the exponential and Weibull models.
	for _, m := range []fit.Model{fit.ModelExponential, fit.ModelWeibull} {
		ref, ok := res.Cell(CensorLongTrain, m)
		if !ok {
			t.Fatalf("missing reference cell for %v", m)
		}
		for _, s := range []CensoringStrategy{CensorDrop, CensorNaive, CensorAware} {
			c, ok := res.Cell(s, m)
			if !ok {
				t.Fatalf("missing cell %v/%v", s, m)
			}
			if c.Efficiency > ref.Efficiency+0.02 {
				t.Errorf("%v/%v: short-window fit (%g) should not beat the reference (%g)",
					s, m, c.Efficiency, ref.Efficiency)
			}
		}
		// Censoring-awareness must recover efficiency relative to
		// dropping the censored observations.
		aware, _ := res.Cell(CensorAware, m)
		drop, _ := res.Cell(CensorDrop, m)
		if aware.Efficiency <= drop.Efficiency {
			t.Errorf("%v: censoring-aware (%g) should beat drop-censored (%g)",
				m, aware.Efficiency, drop.Efficiency)
		}
	}
	out := RenderCensoring(res)
	if !strings.Contains(out, "censoring-aware") || !strings.Contains(out, "long-train") {
		t.Errorf("rendered censoring study:\n%s", out)
	}
	// Strategy names.
	if CensorDrop.String() != "drop-censored" || CensoringStrategy(9).String() != "strategy(9)" {
		t.Error("strategy strings wrong")
	}
}

// TestRunCensoringDeterministicAcrossGOMAXPROCS: the machine loop runs
// on a worker pool and merges its per-machine slots in machine order,
// so the study — every mean to the last bit, and its rendering byte
// for byte — is the same however many workers ran it.
func TestRunCensoringDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) *CensoringResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := RunCensoring(CensoringConfig{Machines: 20, Months: 6, Seed: 2005})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, wide := run(1), run(4)
	if a, b := RenderCensoring(serial), RenderCensoring(wide); a != b {
		t.Errorf("rendered study depends on GOMAXPROCS:\n-- 1 --\n%s-- 4 --\n%s", a, b)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("study depends on GOMAXPROCS:\n1: %+v\n4: %+v", serial.Cells, wide.Cells)
	}
}

func TestRunLiveTablesAndValidation(t *testing.T) {
	w := workload(t)
	campusTable, campusCamp, err := RunLiveTable("Table 4: campus manager", LiveCampaignConfig{
		Workload:        w,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 8,
		Seed:            41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(campusTable.Rows) != 4 {
		t.Fatalf("rows = %d", len(campusTable.Rows))
	}
	if math.Abs(campusTable.MeanC-110) > 35 {
		t.Errorf("campus mean C = %g, want ≈110", campusTable.MeanC)
	}
	for _, r := range campusTable.Rows {
		if r.Samples != 8 {
			t.Errorf("%v: %d samples", r.Model, r.Samples)
		}
		if r.AvgEfficiency < 0 || r.AvgEfficiency > 1 {
			t.Errorf("%v: efficiency %g", r.Model, r.AvgEfficiency)
		}
		if r.TotalTime <= 0 || r.MBUsed <= 0 {
			t.Errorf("%v: degenerate row %+v", r.Model, r)
		}
	}
	txt := RenderLiveTable(campusTable)
	if !strings.Contains(txt, "MB/Hour") {
		t.Errorf("rendered live table:\n%s", txt)
	}

	v, err := RunValidation(w, campusCamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 4 {
		t.Fatalf("validation rows = %d", len(v.Rows))
	}
	vtxt := RenderValidation(v)
	if !strings.Contains(vtxt, "Delta") {
		t.Errorf("rendered validation:\n%s", vtxt)
	}

	// Errors.
	if _, _, err := RunLiveTable("x", LiveCampaignConfig{}); err == nil {
		t.Error("missing workload should error")
	}
	if _, err := RunValidation(nil, campusCamp); err == nil {
		t.Error("nil workload should error")
	}
	if _, err := RunValidation(w, nil); err == nil {
		t.Error("nil campaign should error")
	}
}

// TestWorkloadFitsEachPairOnce pins who owns the live fits: Table 4,
// its validation and Table 5 on one workload fit each (machine, model)
// pair their samples landed on exactly once between them — a count of
// cache misses, not a timing — and a Workload literal, which has no
// memo to share, produces the same tables.
func TestWorkloadFitsEachPairOnce(t *testing.T) {
	w, err := NewWorkload(WorkloadConfig{Machines: 12, Months: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	type tables struct {
		t4, t5 *LiveTable
		v      *ValidationResult
		pairs  map[[2]string]bool
	}
	run := func(w *Workload) tables {
		t4, camp4, err := RunLiveTable("Table 4", LiveCampaignConfig{
			Workload: w, Link: ckptnet.CampusLink(), SamplesPerModel: 6, Seed: 78,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := RunValidation(w, camp4)
		if err != nil {
			t.Fatal(err)
		}
		t5, camp5, err := RunLiveTable("Table 5", LiveCampaignConfig{
			Workload: w, Link: ckptnet.WideAreaLink(), SamplesPerModel: 3, Seed: 79,
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs := make(map[[2]string]bool)
		for _, s := range append(camp4.Samples, camp5.Samples...) {
			pairs[[2]string{s.Machine, s.Model.String()}] = true
		}
		return tables{t4, t5, v, pairs}
	}

	reg := obs.NewRegistry()
	fit.Instrument(reg)
	defer fit.Instrument(nil)
	shared := run(w)
	misses := reg.Snapshot().Counters["fit_cache_misses_total"]
	if int(misses) != len(shared.pairs) {
		t.Errorf("fit cache misses = %d, want one per distinct (machine, model) placed = %d", misses, len(shared.pairs))
	}

	private := run(&Workload{Machines: w.Machines, History: w.History})
	if !reflect.DeepEqual(shared, private) {
		t.Error("tables differ between a workload that shares its fits and one that cannot")
	}
}

func TestRunChaosExperiment(t *testing.T) {
	w := workload(t)
	r, err := RunChaos(ChaosConfig{
		Workload:        w,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 2,
		Seed:            99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sessions != 8 {
		t.Fatalf("sessions = %d", r.Sessions)
	}
	if r.Clean == nil || r.Chaos == nil {
		t.Fatal("missing tables")
	}
	if r.CleanEfficiency <= 0 || r.CleanEfficiency > 1 || r.ChaosEfficiency < 0 || r.ChaosEfficiency > 1 {
		t.Errorf("efficiencies out of range: %g vs %g", r.CleanEfficiency, r.ChaosEfficiency)
	}
	if r.Retries+r.Torn+r.Fallbacks == 0 {
		t.Error("chaos campaign reported no resilience activity")
	}
	// The third, prediction-enabled campaign: alarms fired, sessions
	// settled, and any completed migration carries its bytes.
	if r.Predict == nil {
		t.Fatal("missing prediction-enabled table")
	}
	if r.Predictions == 0 {
		t.Error("predict campaign fired no alarms")
	}
	if r.PredictEfficiency <= 0 || r.PredictEfficiency > 1 {
		t.Errorf("predict efficiency out of range: %g", r.PredictEfficiency)
	}
	if r.Migrations > 0 && r.MigrationMB <= 0 {
		t.Error("migrations moved no bytes")
	}
	out := RenderChaos(r)
	for _, want := range []string{"Chaos experiment", "Efficiency", "MB/hour", "retries", "torn transfers", "fallbacks",
		"chaos+predict", "Prediction (", "migrations moving"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Default fault mix kicks in when unset; the experiment must also
	// refuse a nil workload.
	if _, err := RunChaos(ChaosConfig{}); err == nil {
		t.Error("nil workload should error")
	}
}

// TestRunSweepErrorIsDeterministic: when every task fails, RunSweep
// reports the lowest (C index, machine index) task's error — the first
// machine at the first C — however its workers interleave. The first
// machine's training sample is stretched so its task is the slowest to
// fail: a sweep that kept whichever error came first would name
// another machine.
func TestRunSweepErrorIsDeterministic(t *testing.T) {
	w, err := NewWorkload(WorkloadConfig{Machines: 12, Months: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var long []float64
	for len(long) < 1<<16 {
		long = append(long, w.Data[0].Train...)
	}
	data := slices.Clone(w.Data)
	data[0].Train = long
	w = &Workload{Machines: w.Machines, History: w.History, Data: data}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var first string
	for i := range 20 {
		_, err := RunSweep(w, []float64{1e9, 1e10}, 500)
		if err == nil {
			t.Fatal("a checkpoint longer than every availability period should fail the sweep")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, w.Data[0].Machine+" C=1e+09 ") {
				t.Fatalf("error %q does not name %s at the first C", first, w.Data[0].Machine)
			}
		} else if err.Error() != first {
			t.Fatalf("call %d returned %q, call 0 %q", i, err, first)
		}
	}
}
