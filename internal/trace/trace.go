// Package trace manages resource-availability traces: the sequences of
// occupancy durations (with UTC timestamps) that the paper's Condor
// occupancy monitor records per machine (§4), the train/test split its
// simulations use (§5.1: "training set containing the first 25 values
// occurring chronologically"), and synthetic trace generation,
// including the paper's reference Weibull(shape 0.43, scale 3409)
// trace of 5000 values.
package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// DefaultTrainingSize is the paper's training-set size: the first 25
// availability durations of each machine.
const DefaultTrainingSize = 25

// Record is one observed availability duration.
type Record struct {
	// Start is when the occupancy began (UTC).
	Start time.Time
	// Duration is how long the resource stayed available, in seconds.
	Duration float64
	// Censored marks a right-censored observation: the resource was
	// still available after Duration seconds when the measurement
	// campaign ended (§5.3 of the paper discusses the bias such
	// censoring introduces). Censoring-aware estimators in
	// internal/fit consume this flag.
	Censored bool
}

// Trace is the availability history of one machine, in chronological
// order.
type Trace struct {
	// Machine names the resource (Condor slot / host name).
	Machine string
	// Records holds the observations, sorted by Start.
	Records []Record
}

// Len returns the number of observations.
func (t *Trace) Len() int { return len(t.Records) }

// Durations returns the availability durations in chronological order
// (censored and uncensored alike; use Observations to distinguish).
func (t *Trace) Durations() []float64 {
	out := make([]float64, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.Duration
	}
	return out
}

// Observations returns the durations and a parallel censored-flag
// slice, the inputs the censoring-aware estimators and the
// Kaplan-Meier curve expect.
func (t *Trace) Observations() (durations []float64, censored []bool) {
	durations = make([]float64, len(t.Records))
	censored = make([]bool, len(t.Records))
	for i, r := range t.Records {
		durations[i] = r.Duration
		censored[i] = r.Censored
	}
	return durations, censored
}

// Append adds an observation, keeping chronological order (records
// arriving out of order are inserted at the right place).
func (t *Trace) Append(r Record) {
	n := len(t.Records)
	if n == 0 || !r.Start.Before(t.Records[n-1].Start) {
		t.Records = append(t.Records, r)
		return
	}
	i := sort.Search(n, func(i int) bool { return t.Records[i].Start.After(r.Start) })
	t.Records = append(t.Records, Record{})
	copy(t.Records[i+1:], t.Records[i:])
	t.Records[i] = r
}

// ErrShortTrace is returned by Split when a trace has no experimental
// observations left after the training prefix.
var ErrShortTrace = errors.New("trace: not enough records to split")

// Split divides the trace into a training prefix of n records and an
// experimental suffix, mirroring the paper's protocol. It errors if
// fewer than n+1 records exist (an empty experimental set would make
// the simulation vacuous).
func (t *Trace) Split(n int) (train, test []float64, err error) {
	if n <= 0 {
		n = DefaultTrainingSize
	}
	if len(t.Records) <= n {
		return nil, nil, fmt.Errorf("%w: %d records, need > %d", ErrShortTrace, len(t.Records), n)
	}
	d := t.Durations()
	return d[:n], d[n:], nil
}

// Set is a collection of per-machine traces, as gathered from a pool.
type Set struct {
	// Traces maps machine name to its trace.
	Traces map[string]*Trace
}

// NewSet returns an empty trace set.
func NewSet() *Set {
	return &Set{Traces: make(map[string]*Trace)}
}

// Add appends a record for the named machine, creating its trace on
// first use.
func (s *Set) Add(machine string, r Record) {
	tr, ok := s.Traces[machine]
	if !ok {
		tr = &Trace{Machine: machine}
		s.Traces[machine] = tr
	}
	tr.Append(r)
}

// Machines returns the machine names in deterministic (sorted) order.
func (s *Set) Machines() []string {
	names := make([]string, 0, len(s.Traces))
	for name := range s.Traces {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WithAtLeast returns the traces having at least n records, in
// machine-name order — the paper's "machines which the Condor
// scheduler chose to execute our monitoring process on a sufficient
// number of times" filter.
func (s *Set) WithAtLeast(n int) []*Trace {
	var out []*Trace
	for _, name := range s.Machines() {
		if tr := s.Traces[name]; tr.Len() >= n {
			out = append(out, tr)
		}
	}
	return out
}

// GenerateOptions configures synthetic trace generation.
type GenerateOptions struct {
	// Machine names the synthetic resource.
	Machine string
	// N is the number of availability durations to draw.
	N int
	// Avail is the availability-duration distribution.
	Avail dist.Distribution
	// Busy, if non-nil, is the distribution of the busy (owner-
	// reclaimed) gap between availabilities; a nil Busy uses a fixed
	// 60-second gap, which only affects timestamps, not durations.
	Busy dist.Distribution
	// Start is the timestamp of the first availability; zero means
	// 2003-04-01 UTC, the start of the paper's measurement period.
	Start time.Time
	// Seed seeds the deterministic generator.
	Seed int64
}

// Generate draws a synthetic availability trace: N durations from
// Avail, with inter-availability gaps from Busy. The paper's Table 2
// trace is Generate with Avail = Weibull(0.43, 3409) and N = 5000.
func Generate(opts GenerateOptions) (*Trace, error) {
	if opts.N <= 0 {
		return nil, errors.New("trace: Generate needs N > 0")
	}
	if opts.Avail == nil {
		return nil, errors.New("trace: Generate needs an availability distribution")
	}
	if opts.Machine == "" {
		opts.Machine = "synthetic"
	}
	start := opts.Start
	if start.IsZero() {
		start = time.Date(2003, 4, 1, 0, 0, 0, 0, time.UTC)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	tr := &Trace{Machine: opts.Machine}
	now := start
	for range opts.N {
		d := opts.Avail.Rand(rng)
		tr.Records = append(tr.Records, Record{Start: now, Duration: d})
		now = now.Add(time.Duration(d * float64(time.Second)))
		gap := 60.0
		if opts.Busy != nil {
			gap = opts.Busy.Rand(rng)
		}
		now = now.Add(time.Duration(gap * float64(time.Second)))
	}
	return tr, nil
}
