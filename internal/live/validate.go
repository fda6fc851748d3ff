package live

import (
	"errors"

	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/markov"
	"github.com/cycleharvest/ckptsched/internal/obs"
	"github.com/cycleharvest/ckptsched/internal/sim"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// ValidationRow compares, for one model family, the efficiency the
// live experiment observed against the efficiency the trace-driven
// simulator predicts when replaying the very sessions the live runs
// experienced — the paper's §5.3 verification step.
type ValidationRow struct {
	Model fit.Model
	// LiveEfficiency is the mean per-sample efficiency observed live.
	LiveEfficiency float64
	// SimEfficiency is the mean efficiency of simulating each sample's
	// session with constant C and R set to the sample's mean measured
	// transfer time.
	SimEfficiency float64
	// Samples is the number of sessions compared.
	Samples int
}

// Delta returns live minus simulated efficiency; the paper attributes
// nonzero deltas to right-censoring (sessions are short) and the
// variability of real transfer costs against the simulator's constant
// C and R.
func (v ValidationRow) Delta() float64 { return v.LiveEfficiency - v.SimEfficiency }

// Validate replays every live sample through the discrete-event
// simulator and reports per-model live-vs-simulated efficiency. fits
// is the memo over the history the campaign ran on — the campaign's
// own CampaignConfig.Fits, which already holds every fit this needs,
// or a fresh NewFits of that history.
func Validate(c *Campaign, fits *Fits) ([]ValidationRow, error) {
	if c == nil || len(c.Samples) == 0 {
		return nil, errors.New("live: no samples to validate")
	}
	if fits == nil {
		return nil, errors.New("live: no fits to validate with")
	}

	// Campaign-wide mean transfer cost, the fallback for sessions that
	// never completed a transfer.
	var allC []float64
	for _, s := range c.Samples {
		allC = append(allC, s.MeasuredCs...)
	}
	fallbackC := stats.Mean(allC)
	if len(allC) == 0 {
		return nil, errors.New("live: no measured transfer costs")
	}

	var rows []ValidationRow
	for _, model := range fit.Models {
		var liveEffs, simEffs []float64
		for idx, s := range c.Samples {
			if s.Model != model || s.SessionSec <= 0 {
				continue
			}
			cMean := fallbackC
			if len(s.MeasuredCs) > 0 {
				cMean = stats.Mean(s.MeasuredCs)
			}
			d, err := fits.fitFor(s.Machine, model)
			if err != nil {
				return nil, err
			}
			costs := markov.Costs{C: cMean, R: cMean, L: cMean}
			m := markov.Model{Avail: d, Costs: costs}
			// The build traces on the replayed session's own lane.
			sched, err := m.BuildSchedule(s.TElapsed+cMean, markov.ScheduleOptions{
				Horizon:    s.TElapsed + s.SessionSec + 2*cMean + 1,
				Trace:      c.tracer,
				TracePid:   c.pidBase + uint64(idx) + 1,
				TraceAttrs: []obs.Attr{obs.AttrStr("machine", s.Machine)},
			})
			if err != nil {
				// The model believes this session couldn't make
				// progress; score it as zero efficiency, matching what
				// the live run would have been able to commit.
				liveEffs = append(liveEffs, s.Efficiency())
				simEffs = append(simEffs, 0)
				continue
			}
			// The simulator ages from availability start; the live
			// sample started at TElapsed, so shift the planner.
			tel := s.TElapsed
			planner := sim.PlannerFunc(func(age float64) (float64, bool) {
				return sched.IntervalAt(tel + age)
			})
			res, err := sim.Run([]float64{s.SessionSec}, planner, sim.Config{
				Costs:        costs,
				CheckpointMB: 0, // bandwidth not compared here
			})
			if err != nil {
				return nil, err
			}
			liveEffs = append(liveEffs, s.Efficiency())
			simEffs = append(simEffs, res.Efficiency())
		}
		if len(liveEffs) == 0 {
			continue
		}
		rows = append(rows, ValidationRow{
			Model:          model,
			LiveEfficiency: stats.Mean(liveEffs),
			SimEfficiency:  stats.Mean(simEffs),
			Samples:        len(liveEffs),
		})
	}
	return rows, nil
}
