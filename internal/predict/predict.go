// Package predict implements an oracle-backed fault predictor for the
// availability processes the simulators and live campaigns already
// own. The paper's policies are purely reactive — a checkpoint
// schedule is chosen and failures are discovered when they land — but
// Aupy, Robert and Vivien ("Impact of fault prediction on
// checkpointing strategies", PAPERS.md) show that even an imperfect
// predictor changes the optimal policy, and Cappello, Casanova and
// Robert ("Checkpointing vs. Migration for Post-Petascale Machines")
// show that moving a job off a doomed resource can beat checkpointing
// in place. This package supplies the predictor both results assume:
// tunable precision, recall and lead time, driven off the true failure
// instants the simulation engines know exactly (the oracle).
//
// # Semantics
//
// A predictor observes one availability period at a time. The period
// ends in a failure (an owner reclaim) at periodLen seconds.
//
//   - With probability Recall the failure is predicted: a true alarm
//     fires LeadSec seconds before the failure (clamped to the period
//     start when the period is shorter than the lead time — the
//     predictor still warns, just with less notice).
//   - False alarms fire at a rate that makes the realized precision
//     match Precision in expectation: the expected false-alarm count
//     per period is Recall·(1−Precision)/Precision, drawn Poisson and
//     placed uniformly over the period. Precision 1 means no false
//     alarms; lower precision buys more of them at the same recall.
//
// Every draw comes from an rng the caller supplies, so consumers keep
// the repo's determinism contract (DESIGN.md §12): each simulation or
// session derives a private splitmix64 stream for its predictor, draws
// happen in a fixed order, and a disabled predictor draws nothing —
// leaving pre-existing RNG streams bit-identical.
package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config parameterizes the oracle predictor. The zero value disables
// prediction (Enabled reports false and PeriodEvents returns nil
// without drawing).
type Config struct {
	// Precision is the fraction of fired alarms that are true, in
	// (0, 1]. Lower precision adds false alarms at fixed recall.
	Precision float64
	// Recall is the fraction of failures that receive a true alarm,
	// in [0, 1].
	Recall float64
	// LeadSec is the warning the predictor gives: a true alarm fires
	// this many seconds before the failure it predicts.
	LeadSec float64
}

// Enabled reports whether the configuration describes an active
// predictor (any field set).
func (c Config) Enabled() bool {
	return c.Precision != 0 || c.Recall != 0 || c.LeadSec != 0
}

// Validate checks the configuration. The zero (disabled) value is
// valid; an enabled predictor needs Precision in (0, 1], Recall in
// [0, 1] and a non-negative finite lead time.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if math.IsNaN(c.Precision) || c.Precision <= 0 || c.Precision > 1 {
		return fmt.Errorf("predict: precision %g outside (0, 1]", c.Precision)
	}
	if math.IsNaN(c.Recall) || c.Recall < 0 || c.Recall > 1 {
		return fmt.Errorf("predict: recall %g outside [0, 1]", c.Recall)
	}
	if math.IsNaN(c.LeadSec) || math.IsInf(c.LeadSec, 0) || c.LeadSec < 0 {
		return fmt.Errorf("predict: lead time %g s must be finite and non-negative", c.LeadSec)
	}
	return nil
}

// String renders the configuration compactly ("p0.85/r0.80/lead240s",
// or "off" when disabled).
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	return fmt.Sprintf("p%.2f/r%.2f/lead%gs", c.Precision, c.Recall, c.LeadSec)
}

// Perfect returns the ideal predictor: every failure predicted, no
// false alarms, the given lead time.
func Perfect(leadSec float64) Config {
	return Config{Precision: 1, Recall: 1, LeadSec: leadSec}
}

// Event is one alarm within an availability period.
type Event struct {
	// At is the alarm instant, in seconds after the period began.
	At float64
	// True reports whether the alarm predicts the period's real
	// failure (false = false alarm).
	True bool
}

// Predictor draws per-period alarm sequences under a validated
// configuration. It is stateless and safe for concurrent use; all
// randomness comes from the rng each call supplies.
type Predictor struct {
	cfg Config
}

// New returns a predictor for cfg, or an error when cfg is invalid or
// disabled.
func New(cfg Config) (*Predictor, error) {
	if !cfg.Enabled() {
		return nil, errors.New("predict: disabled configuration (zero value)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg}, nil
}

// PeriodEvents draws the alarms for one availability period of the
// given length whose failure strikes at its end, sorted by firing
// time. A nil receiver or a non-positive period returns nil without
// drawing. The draw order is fixed — one uniform for the recall
// Bernoulli, one Poisson sequence for the false-alarm count, then one
// uniform per false alarm — so a fixed rng stream yields a fixed alarm
// sequence regardless of the caller's concurrency.
func (p *Predictor) PeriodEvents(periodLen float64, rng *rand.Rand) []Event {
	if p == nil || periodLen <= 0 {
		return nil
	}
	var evs []Event
	if rng.Float64() < p.cfg.Recall {
		at := periodLen - p.cfg.LeadSec
		if at < 0 {
			at = 0
		}
		evs = append(evs, Event{At: at, True: true})
	}
	// Expected false alarms per period keep TP/(TP+FP) = Precision:
	// recall·(1−precision)/precision.
	if fa := p.cfg.Recall * (1 - p.cfg.Precision) / p.cfg.Precision; fa > 0 {
		for range poisson(fa, rng) {
			evs = append(evs, Event{At: periodLen * rng.Float64()})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		// A true alarm outranks a coincident false one.
		return evs[i].True && !evs[j].True
	})
	return evs
}

// poisson draws a Poisson variate with the given mean (Knuth's
// product-of-uniforms method; means here are O(1), so the loop is
// short).
func poisson(mean float64, rng *rand.Rand) int {
	l := math.Exp(-mean)
	k, prod := 0, 1.0
	for {
		prod *= rng.Float64()
		if prod <= l {
			return k
		}
		k++
	}
}

// Policy selects how a job acts on predictor alarms.
type Policy int

const (
	// PolicyReactive ignores alarms: the paper's baseline. Alarms are
	// still counted and traced, so the predictor's quality is
	// measurable without acting on it.
	PolicyReactive Policy = iota
	// PolicyProactive takes a checkpoint the moment an alarm fires —
	// committing the work done so far in the current interval — then
	// resumes the normal Markov schedule.
	PolicyProactive
	// PolicyMigrate transfers the image to a fresher resource instead
	// of checkpointing in place: the job leaves the doomed machine
	// once the transfer completes, paying transfer + recovery
	// (ckptnet-accounted) to escape the predicted failure.
	PolicyMigrate
)

func (p Policy) String() string {
	switch p {
	case PolicyReactive:
		return "reactive"
	case PolicyProactive:
		return "proactive"
	case PolicyMigrate:
		return "migrate"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name as the CLIs spell it.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reactive":
		return PolicyReactive, nil
	case "proactive":
		return PolicyProactive, nil
	case "migrate":
		return PolicyMigrate, nil
	}
	return 0, fmt.Errorf("predict: unknown policy %q (want reactive, proactive or migrate)", s)
}

// StreamSeed derives the predictor's private RNG seed from a base seed
// via a salted splitmix64 round — the live.RunCampaign / parallel
// recipe — so predictor draws never perturb the consumer's existing
// streams and stay decorrelated from them.
func StreamSeed(seed int64) int64 {
	z := uint64(seed) ^ 0x7072656469637431 // "predict1"
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
