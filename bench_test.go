// Benchmarks regenerating every table and figure of the paper (one
// bench per artifact, on reduced workloads so the suite stays fast),
// plus ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the hot paths.
//
// Quality ablations report their figure of merit (efficiency, MB) via
// b.ReportMetric alongside the usual ns/op.
package ckptsched_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/dist"
	"github.com/cycleharvest/ckptsched/internal/experiments"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/live"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/mathx"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/parallel"
	"github.com/cycleharvest/ckptsched/internal/sim"
)

// benchWorkload lazily builds one reduced workload shared by the table
// benches (12 machines, 6 virtual months).
var (
	benchOnce sync.Once
	benchW    *experiments.Workload
	benchErr  error
)

func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() {
		benchW, benchErr = experiments.NewWorkload(experiments.WorkloadConfig{
			Machines: 12,
			Months:   6,
			Seed:     2005,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchW
}

var benchCTimes = []float64{100, 500}

// BenchmarkFigure3Efficiency regenerates Figure 3's mean-efficiency
// curves (reduced C axis).
func BenchmarkFigure3Efficiency(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for b.Loop() {
		s, err := experiments.RunSweep(w, benchCTimes, 500)
		if err != nil {
			b.Fatal(err)
		}
		series := s.Figure3()
		b.ReportMetric(series[0].Mean[0], "eff@C100")
	}
}

// BenchmarkTable1EfficiencyCI regenerates Table 1 (CIs + paired
// t-tests) from a fresh sweep.
func BenchmarkTable1EfficiencyCI(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for b.Loop() {
		s, err := experiments.RunSweep(w, benchCTimes, 500)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SyntheticWeibull regenerates Table 2 on a reduced
// synthetic trace.
func BenchmarkTable2SyntheticWeibull(b *testing.B) {
	for b.Loop() {
		res, err := experiments.RunTable2(experiments.Table2Config{N: 1000, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if cell, ok := res.Cell(fit.ModelWeibull, 50, true); ok {
			b.ReportMetric(cell.Efficiency, "eff-weibull@C50")
		}
	}
}

// BenchmarkFigure4Bandwidth regenerates Figure 4's network-load
// curves.
func BenchmarkFigure4Bandwidth(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for b.Loop() {
		s, err := experiments.RunSweep(w, benchCTimes, 500)
		if err != nil {
			b.Fatal(err)
		}
		series := s.Figure4()
		b.ReportMetric(series[0].Mean[1]/1e6, "exp-TB@C500")
	}
}

// BenchmarkTable3BandwidthCI regenerates Table 3.
func BenchmarkTable3BandwidthCI(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for b.Loop() {
		s, err := experiments.RunSweep(w, benchCTimes, 500)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4LiveCampus regenerates Table 4 (campus manager) with
// a reduced sample count.
func BenchmarkTable4LiveCampus(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		t4, _, err := experiments.RunLiveTable("bench", experiments.LiveCampaignConfig{
			Workload:        w,
			Link:            ckptnet.CampusLink(),
			SamplesPerModel: 4,
			Seed:            1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t4.MeanC, "meanC-s")
	}
}

// BenchmarkTable5LiveWAN regenerates Table 5 (wide-area manager).
func BenchmarkTable5LiveWAN(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		t5, _, err := experiments.RunLiveTable("bench", experiments.LiveCampaignConfig{
			Workload:        w,
			Link:            ckptnet.WideAreaLink(),
			SamplesPerModel: 4,
			Seed:            2,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t5.MeanC, "meanC-s")
	}
}

// BenchmarkValidationSimVsLive regenerates the §5.3 validation from a
// pre-built campaign.
func BenchmarkValidationSimVsLive(b *testing.B) {
	w := benchWorkload(b)
	_, camp, err := experiments.RunLiveTable("bench", experiments.LiveCampaignConfig{
		Workload:        w,
		Link:            ckptnet.CampusLink(),
		SamplesPerModel: 4,
		Seed:            3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		v, err := experiments.RunValidation(w, camp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v.Rows[0].Delta(), "delta-exp")
	}
}

// BenchmarkSensitivityStudy regenerates the parameter-sensitivity
// extension (§5.2's robustness concern) on a reduced trace.
func BenchmarkSensitivityStudy(b *testing.B) {
	for b.Loop() {
		res, err := experiments.RunSensitivity(experiments.SensitivityConfig{
			N:             800,
			Perturbations: []float64{0.25},
			Seed:          2005,
		})
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := res.Cell(fit.ModelWeibull, 0.25); ok {
			b.ReportMetric(c.Loss(), "eff-loss@25%")
		}
	}
}

// BenchmarkCensoringStudy regenerates the censoring-sensitivity
// extension (§5.3 quantified) on a reduced pool.
func BenchmarkCensoringStudy(b *testing.B) {
	for b.Loop() {
		res, err := experiments.RunCensoring(experiments.CensoringConfig{
			Machines:  12,
			ShortDays: 0.5,
			Months:    4,
			Seed:      2005,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.CensoredFraction, "censored-%")
	}
}

// --- Ablations -------------------------------------------------------

// quadratureDist wraps a distribution, discarding its closed-form
// partial moment in favor of adaptive quadrature, to measure what the
// closed forms buy inside the Markov model.
type quadratureDist struct {
	dist.Distribution
}

func (q quadratureDist) PartialMoment(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return mathx.SimpsonAdaptive(func(t float64) float64 {
		return t * q.Distribution.PDF(t)
	}, 1e-9, x, 1e-9)
}

// BenchmarkAblationClosedFormVsQuadrature compares Γ evaluation using
// the closed-form partial moments against numeric quadrature.
func BenchmarkAblationClosedFormVsQuadrature(b *testing.B) {
	w := dist.NewWeibull(0.43, 3409)
	costs := markov.Costs{C: 110, R: 110, L: 110}
	b.Run("closed-form", func(b *testing.B) {
		m := markov.Model{Avail: w, Costs: costs}
		for b.Loop() {
			_ = m.Gamma(1000, 700)
		}
	})
	b.Run("quadrature", func(b *testing.B) {
		m := markov.Model{Avail: quadratureDist{w}, Costs: costs}
		for b.Loop() {
			_ = m.Gamma(1000, 700)
		}
	})
}

// BenchmarkAblationScheduleCache compares simulating with a prebuilt
// schedule (ages looked up) against recomputing T_opt at every
// interval boundary.
func BenchmarkAblationScheduleCache(b *testing.B) {
	avail := dist.NewWeibull(0.43, 3409)
	costs := markov.Costs{C: 110, R: 110, L: 110}
	m := markov.Model{Avail: avail, Costs: costs}
	rng := rand.New(rand.NewSource(5))
	durations := make([]float64, 200)
	for i := range durations {
		durations[i] = avail.Rand(rng)
	}
	cfg := sim.Config{Costs: costs, CheckpointMB: 500}
	b.Run("cached-schedule", func(b *testing.B) {
		for b.Loop() {
			sched, err := m.BuildSchedule(costs.R, markov.ScheduleOptions{Horizon: 200000})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(durations, sched, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute-every-interval", func(b *testing.B) {
		planner := sim.PlannerFunc(func(age float64) (float64, bool) {
			T, _, err := m.Topt(age, markov.OptimizeOptions{})
			if err != nil {
				return 0, false
			}
			return T, true
		})
		for b.Loop() {
			if _, err := sim.Run(durations, planner, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOptimizerBracket varies the coarse-scan grid that
// brackets the Golden Section refinement.
func BenchmarkAblationOptimizerBracket(b *testing.B) {
	m := markov.Model{
		Avail: dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{1.0 / 600, 1.0 / 30000}),
		Costs: markov.Costs{C: 110, R: 110, L: 110},
	}
	for _, grid := range []int{8, 64, 256} {
		b.Run("grid-"+strconv.Itoa(grid), func(b *testing.B) {
			var lastT float64
			for b.Loop() {
				T, _, err := m.Topt(700, markov.OptimizeOptions{GridPoints: grid})
				if err != nil {
					b.Fatal(err)
				}
				lastT = T
			}
			b.ReportMetric(lastT, "Topt-s")
		})
	}
}

// BenchmarkAblationEMPhases measures hyperexponential EM fitting cost
// as the phase count grows.
func BenchmarkAblationEMPhases(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	truth := dist.NewWeibull(0.43, 3409)
	data := make([]float64, 200)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	for _, k := range []int{1, 2, 3, 4} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			var ll float64
			for b.Loop() {
				r, err := fit.Hyperexp(data, k, fit.EMOptions{})
				if err != nil {
					b.Fatal(err)
				}
				ll = r.LogLik
			}
			b.ReportMetric(-ll, "negLogLik")
		})
	}
}

// BenchmarkAblationConditioning quantifies the paper's core mechanism:
// age-conditioned (future-lifetime) scheduling versus ignoring the
// resource's age, on the same heavy-tailed trace. The reported
// efficiency metric is the figure of merit.
func BenchmarkAblationConditioning(b *testing.B) {
	avail := dist.NewWeibull(0.43, 3409)
	costs := markov.Costs{C: 500, R: 500, L: 500}
	m := markov.Model{Avail: avail, Costs: costs}
	rng := rand.New(rand.NewSource(7))
	durations := make([]float64, 400)
	for i := range durations {
		durations[i] = avail.Rand(rng)
	}
	cfg := sim.Config{Costs: costs, CheckpointMB: 500}
	b.Run("age-conditioned", func(b *testing.B) {
		sched, err := m.BuildSchedule(costs.R, markov.ScheduleOptions{Horizon: 500000})
		if err != nil {
			b.Fatal(err)
		}
		var eff, mb float64
		for b.Loop() {
			res, err := sim.Run(durations, sched, cfg)
			if err != nil {
				b.Fatal(err)
			}
			eff, mb = res.Efficiency(), res.MBTransferred
		}
		b.ReportMetric(eff, "efficiency")
		b.ReportMetric(mb/1000, "GB-moved")
	})
	b.Run("unconditioned", func(b *testing.B) {
		T0, _, err := m.Topt(0, markov.OptimizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		planner := sim.FixedInterval(T0)
		var eff, mb float64
		for b.Loop() {
			res, err := sim.Run(durations, planner, cfg)
			if err != nil {
				b.Fatal(err)
			}
			eff, mb = res.Efficiency(), res.MBTransferred
		}
		b.ReportMetric(eff, "efficiency")
		b.ReportMetric(mb/1000, "GB-moved")
	})
}

// BenchmarkAblationStagger compares checkpoint-coordination policies
// for a 16-process parallel job on one shared link (the paper's §5.2
// future-work scenario). Efficiency and collision stretch are the
// figures of merit.
func BenchmarkAblationStagger(b *testing.B) {
	avail := dist.NewWeibull(0.43, 3409)
	for _, pol := range []parallel.StaggerPolicy{
		parallel.StaggerNone, parallel.StaggerToken, parallel.StaggerJitter,
	} {
		b.Run(pol.String(), func(b *testing.B) {
			var res parallel.Result
			for b.Loop() {
				var err error
				res, err = parallel.Run(parallel.Config{
					Workers:      16,
					Avail:        avail,
					ScheduleDist: avail,
					LinkMBps:     5,
					CheckpointMB: 500,
					Duration:     48 * 3600,
					Stagger:      pol,
					Seed:         11,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Efficiency, "efficiency")
			b.ReportMetric(res.CollisionStretch(), "stretch")
		})
	}
}

// BenchmarkAblationCostPredictor compares scheduling with the last
// measured transfer cost (the paper's live test process) against
// NWS-style forecasted costs (the paper's described system) on the
// high-variance wide-area link.
func BenchmarkAblationCostPredictor(b *testing.B) {
	w := benchWorkload(b)
	for _, useForecast := range []bool{false, true} {
		name := "last-measurement"
		if useForecast {
			name = "nws-forecast"
		}
		b.Run(name, func(b *testing.B) {
			var eff float64
			for b.Loop() {
				camp, err := live.RunCampaign(live.CampaignConfig{
					Machines:        w.Machines,
					History:         w.History,
					Link:            ckptnet.WideAreaLink(),
					SamplesPerModel: 4,
					UseForecast:     useForecast,
					Seed:            13,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, s := range camp.Samples {
					sum += s.Efficiency()
				}
				eff = sum / float64(len(camp.Samples))
			}
			b.ReportMetric(eff, "efficiency")
		})
	}
}

// BenchmarkAblationDiurnal measures how nonstationary (time-of-day
// modulated) availability affects the stationary fitters' schedules:
// real desktop traces violate the i.i.d. assumption exactly this way.
// Reported metric: mean hyperexp2 efficiency across machines at C=500.
func BenchmarkAblationDiurnal(b *testing.B) {
	for _, amp := range []float64{0, 2} {
		name := "stationary"
		if amp > 0 {
			name = "diurnal-A2"
		}
		b.Run(name, func(b *testing.B) {
			w, err := experiments.NewWorkload(experiments.WorkloadConfig{
				Machines:         12,
				Months:           6,
				DiurnalAmplitude: amp,
				Seed:             2005,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var eff float64
			for b.Loop() {
				s, err := experiments.RunSweep(w, []float64{500}, 500)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for _, v := range s.Efficiency[fit.ModelHyperexp2][0] {
					sum += v
				}
				eff = sum / float64(len(s.Machines))
			}
			b.ReportMetric(eff, "efficiency")
		})
	}
}

// BenchmarkAblationLatency exercises the checkpoint-latency parameter
// L that distinguishes Vaidya's model from overhead-only formulations:
// sequential checkpointing blocks the application for the full
// transfer (C = L), while forked/copy-on-write checkpointing blocks it
// briefly (small C) although the image still takes L seconds to reach
// stable storage. The reported metric is the analytic efficiency at
// T_opt.
func BenchmarkAblationLatency(b *testing.B) {
	avail := dist.NewWeibull(0.43, 3409)
	cases := []struct {
		name string
		c, l float64
	}{
		{"sequential-C500-L500", 500, 500},
		{"forked-C50-L500", 50, 500},
		{"instant-C50-L50", 50, 50},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m := markov.Model{Avail: avail, Costs: markov.Costs{C: tc.c, R: tc.c, L: tc.l}}
			var eff float64
			for b.Loop() {
				_, ratio, err := m.Topt(500, markov.OptimizeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				eff = 1 / ratio
			}
			b.ReportMetric(eff, "efficiency")
		})
	}
}

// --- Micro-benchmarks of the hot paths -------------------------------

func BenchmarkTopt(b *testing.B) {
	m := markov.Model{
		Avail: dist.NewWeibull(0.43, 3409),
		Costs: markov.Costs{C: 110, R: 110, L: 110},
	}
	for b.Loop() {
		if _, _, err := m.Topt(700, markov.OptimizeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitWeibullMLE(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	truth := dist.NewWeibull(0.43, 3409)
	data := make([]float64, 25)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	for b.Loop() {
		if _, err := fit.Weibull(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSchedule(b *testing.B) {
	m := markov.Model{
		Avail: dist.NewWeibull(0.43, 3409),
		Costs: markov.Costs{C: 110, R: 110, L: 110},
	}
	for b.Loop() {
		if _, err := m.BuildSchedule(110, markov.ScheduleOptions{Horizon: 100000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelRun measures the sharded event-calendar engine of
// the §5.2 parallel-workload simulator across herd sizes. The link
// scales with the herd (2 MB/s per worker) while the image stays at
// 500 MB at every size, so the solo checkpoint cost, 500/(2w) s, falls
// as 1/w: each size runs a different T_opt regime with more checkpoint
// events per worker the larger the herd. The size ratios therefore mix
// per-event cost with event count — w65536 runs at ≈ 115–117×
// w1024's ns/op for 64× the workers (117× in BENCH_seed.json) — and
// are not a per-event scaling figure. The w1M case is a smoke over a
// one-hour horizon — enough to exercise the million-worker shard and
// wheel allocation and steady state without a full-day sweep per
// iteration — and is skipped under -short. BENCH_seed.json gates both
// time and allocations, so the configuration stays as recorded.
func BenchmarkParallelRun(b *testing.B) {
	avail := dist.NewWeibull(0.43, 3409)
	run := func(b *testing.B, workers int, duration float64) {
		cfg := parallel.Config{
			Workers:      workers,
			Avail:        avail,
			ScheduleDist: avail,
			LinkMBps:     2 * float64(workers),
			CheckpointMB: 500,
			Duration:     duration,
			Seed:         11,
		}
		// One untimed run first: it fills parallel's schedule cache, so
		// every -count repetition times the steady state, not the one
		// in the process that happens to build the schedule.
		if _, err := parallel.Run(cfg); err != nil {
			b.Fatal(err)
		}
		var eff float64
		b.ReportAllocs()
		b.ResetTimer()
		for b.Loop() {
			res, err := parallel.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eff = res.Efficiency
		}
		b.ReportMetric(eff, "efficiency")
	}
	for _, w := range []int{64, 1024, 65536} {
		b.Run("w"+strconv.Itoa(w), func(b *testing.B) {
			run(b, w, 24*3600)
		})
	}
	b.Run("w1M", func(b *testing.B) {
		if testing.Short() {
			b.Skip("million-worker smoke skipped under -short")
		}
		run(b, 1<<20, 3600)
	})
}

// BenchmarkObsNilRegistry pins the obs package's off switch: resolving
// metrics from a nil registry and mutating the resulting nil metrics
// must stay allocation-free and a few ns per call, because every
// instrumented subsystem runs through this path when no -metrics or
// -stats flag is given. BENCH_seed.json gates regressions.
func BenchmarkObsNilRegistry(b *testing.B) {
	var reg *obs.Registry
	c := reg.Counter("bench_nil_total", "")
	g := reg.Gauge("bench_nil_gauge", "")
	h := reg.Histogram("bench_nil_seconds", "", obs.DefBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.SetMax(9)
		h.Observe(0.25)
	}
}

// BenchmarkObsNilTracer pins the tracer's off switch the same way:
// spans, instants and attributes through a nil *obs.Tracer must stay
// allocation-free, because every traced subsystem (manager sessions,
// simulator periods, schedule builds) runs through this path when no
// -trace flag is given. BENCH_seed.json gates regressions.
func BenchmarkObsNilTracer(b *testing.B) {
	var tr *obs.Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		sp := tr.StartSpan(1, 1, "bench").SetAttr(obs.AttrStr("k", "v"))
		tr.Event(1, 1, "bench.event", obs.AttrInt("n", 42))
		tr.SpanAt(1, 1, "bench.at", 0, 1, obs.AttrFloat("f", 0.5))
		tr.EventAt(1, 1, "bench.event.at", 2, obs.AttrBool("ok", true))
		sp.End()
	}
}

// BenchmarkHyperexpEM measures the hyperexponential EM fit on a
// 2000-sample, 3-phase workload — the hot loop the flattened
// responsibility matrix (one contiguous k×n slice) speeds up.
func BenchmarkHyperexpEM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	truth := dist.NewHyperexponential(
		[]float64{0.6, 0.3, 0.1},
		[]float64{1.0 / 300, 1.0 / 3000, 1.0 / 30000},
	)
	data := make([]float64, 2000)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := fit.Hyperexp(data, 3, fit.EMOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
