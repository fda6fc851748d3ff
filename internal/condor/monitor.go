package condor

import (
	"errors"
	"strconv"
	"time"

	"github.com/cycleharvest/ckptsched/internal/trace"
)

// MonitorConfig drives an occupancy-measurement campaign (§4 of the
// paper: Vanilla-universe sensor processes that report elapsed time
// until eviction).
type MonitorConfig struct {
	// Monitors is how many sensor processes to keep in the queue. The
	// paper floods the pool so most idle periods are observed; fewer
	// monitors than machines leaves some machines rarely measured
	// (the paper obtained data for ~640 of 1000+ machines).
	Monitors int
	// Duration is the measurement-campaign length in virtual seconds
	// (the paper ran for 18 months).
	Duration float64
	// Epoch anchors virtual time 0 to a wall-clock instant for the
	// trace timestamps; zero means 2003-04-01 UTC.
	Epoch time.Time
	// IncludeCensored records occupancies still in progress at the end
	// of the campaign as right-censored observations instead of
	// discarding them. §5.3 of the paper discusses the censoring bias
	// that discarding (or truncating) introduces; the censoring-aware
	// estimators in internal/fit consume the flag.
	IncludeCensored bool
}

// epochOrDefault returns the configured epoch or the paper's campaign
// start.
func (c MonitorConfig) epochOrDefault() time.Time {
	if c.Epoch.IsZero() {
		return time.Date(2003, 4, 1, 0, 0, 0, 0, time.UTC)
	}
	return c.Epoch
}

// CollectTraces runs cfg.Monitors occupancy monitors in the pool for
// cfg.Duration virtual seconds and returns the per-machine
// availability traces they record. Each record is one occupancy: the
// time from job start to eviction on one machine.
//
// Occupancies still in progress when the campaign ends are
// right-censored (the bias the paper's §5.3 validation discusses): they
// are discarded, unless cfg.IncludeCensored records each as a record
// with Censored set and the duration observed so far.
func CollectTraces(p *Pool, cfg MonitorConfig) (*trace.Set, error) {
	if p == nil {
		return nil, errors.New("condor: nil pool")
	}
	if cfg.Monitors <= 0 {
		return nil, errors.New("condor: need at least one monitor")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("condor: non-positive campaign duration")
	}
	epoch := cfg.epochOrDefault()
	set := trace.NewSet()

	type occupancy struct {
		machine string
		start   float64
	}
	currents := make([]occupancy, cfg.Monitors)
	jobs := make([]*Job, cfg.Monitors)
	for i := range cfg.Monitors {
		i := i
		j := &Job{
			Name:    monitorName(i),
			Requeue: true,
		}
		j.OnStart = func(a Alloc) {
			currents[i] = occupancy{machine: a.Machine.Name, start: a.Start}
		}
		j.OnEvict = func(at float64) {
			set.Add(currents[i].machine, trace.Record{
				Start:    epoch.Add(time.Duration(currents[i].start * float64(time.Second))),
				Duration: at - currents[i].start,
			})
		}
		if err := p.Submit(j); err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	p.RunUntil(cfg.Duration)
	if cfg.IncludeCensored {
		for i, j := range jobs {
			if j.State() != JobRunning {
				continue
			}
			cur := currents[i]
			set.Add(cur.machine, trace.Record{
				Start:    epoch.Add(time.Duration(cur.start * float64(time.Second))),
				Duration: cfg.Duration - cur.start,
				Censored: true,
			})
		}
	}
	return set, nil
}

func monitorName(i int) string {
	return "occupancy-monitor-" + strconv.Itoa(i)
}
