// Package obs is a zero-dependency metrics layer for the checkpoint
// pipeline: atomic counters, gauges, and fixed-bucket histograms
// collected in a Registry that can render a deterministic snapshot or
// a Prometheus text-format page.
//
// The package exists so the manager, the simulators, and the sweep
// engine can be observed where the cost is paid — retry storms, cache
// hit rates, heap pressure — without attaching a profiler. Two
// properties are contractual:
//
//   - Off-path cheap. Every mutation is a single atomic operation (a
//     CAS loop for the histogram sum), and every metric method is a
//     no-op on a nil receiver, so call sites stay unconditional:
//     instrumented code runs at full speed with no registry attached.
//     The nil fast path is allocation-free (benchmarked in CI).
//
//   - Deterministic exposition. Snapshot and WriteText order metrics
//     by name, so two runs that did the same work render byte-identical
//     pages — the property the golden tests and the reconciliation
//     checks against ckptnet.SessionLog.Summarize rely on.
//
// Metric names follow the Prometheus conventions (snake_case, _total
// suffix on counters, unit suffix on histograms); DESIGN.md §11 lists
// the names each subsystem registers as a stable contract.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; a nil *Counter is valid and all methods no-op, so
// uninstrumented call sites cost one predictable branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value. The zero value is ready to
// use; a nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v exceeds the current value — the
// idiom for high-water marks (peak link concurrency) shared by
// concurrent writers.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value (zero for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float64 value — the shape burn rates,
// ratios, and estimated quantiles take, which the integer Gauge cannot
// carry. The zero value is ready to use; a nil *FloatGauge no-ops.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Value returns the current value (zero for a nil gauge).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// DefBuckets is the default histogram bucket layout for durations in
// seconds: 1 ms heartbeat jitter through 5-minute idle timeouts.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Histogram counts observations into fixed buckets with inclusive
// upper bounds (Prometheus "le" semantics) plus an implicit +Inf
// overflow bucket, and tracks the running sum. A nil *Histogram
// no-ops. Construct via Registry.Histogram (or NewHistogram for a
// detached instance); bucket bounds are fixed at construction.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last slot is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram builds a detached histogram with the given inclusive
// upper bounds, which must be strictly increasing (panics otherwise;
// bucket layouts are compile-time decisions). Empty bounds give a
// single +Inf bucket.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound is >= v (inclusive "le" bounds); misses
	// land in the +Inf slot. NaN compares false everywhere and so also
	// lands in +Inf rather than corrupting a finite bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		val := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, val) {
			return
		}
	}
}

// Count returns the number of observations (zero for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (zero for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot captures a consistent-enough view for exposition: buckets
// are read individually (exact totals only once writers quiesce, like
// every atomic-counter exporter).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
