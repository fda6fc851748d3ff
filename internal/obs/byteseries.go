package obs

// ByteSeries is the bytes-on-wire accumulator for parallel replays:
// fixed-width time bins of exact int64 byte counts on a caller-supplied
// clock (virtual in campaigns, wall in servers). Unlike History — which
// scrapes shared cumulative state and therefore needs a sequential
// clock to stay deterministic — a ByteSeries is written at event time
// by many goroutines at once, and stays bit-identical at any
// GOMAXPROCS because each Add is a single atomic integer addition and
// integer adds commute: the bins hold the same totals no matter how
// the scheduler interleaves the writers. That is why the bins are
// int64 bytes, not float64 megabytes — float addition does not commute
// in rounding, integer addition does.

import "sync/atomic"

// ByteSeries accumulates byte counts into fixed-width time bins. The
// nil *ByteSeries no-ops, matching the rest of the package.
type ByteSeries struct {
	width float64
	bins  []atomic.Int64
}

// NewByteSeries builds a series of n bins, each width seconds wide,
// covering [0, n*width) on the caller's clock. Panics if width <= 0 or
// n <= 0 (bin layouts are compile-time decisions, like histogram
// bounds).
func NewByteSeries(width float64, n int) *ByteSeries {
	if width <= 0 || n <= 0 {
		panic("obs: ByteSeries needs positive width and bin count")
	}
	return &ByteSeries{width: width, bins: make([]atomic.Int64, n)}
}

// Add records n bytes at timestamp ts. Timestamps before the first bin
// clamp to it and timestamps past the last clamp to it, so totals stay
// exact even when an event lands outside the configured horizon.
// Safe for concurrent use; allocation-free; nil-safe.
func (b *ByteSeries) Add(ts float64, n int64) {
	if b == nil {
		return
	}
	i := int(ts / b.width)
	if i < 0 {
		i = 0
	}
	if i >= len(b.bins) {
		i = len(b.bins) - 1
	}
	b.bins[i].Add(n)
}

// Width returns the bin width in seconds (zero for nil).
func (b *ByteSeries) Width() float64 {
	if b == nil {
		return 0
	}
	return b.width
}

// Bins copies the current bin totals out (nil slice for a nil series).
// Test seam: programs read the series as Total and MBPerSec; the obs
// and live tests check the bins' exact byte totals.
func (b *ByteSeries) Bins() []int64 {
	if b == nil {
		return nil
	}
	out := make([]int64, len(b.bins))
	for i := range b.bins {
		out[i] = b.bins[i].Load()
	}
	return out
}

// Total returns the sum over all bins (zero for nil).
func (b *ByteSeries) Total() int64 {
	if b == nil {
		return 0
	}
	var t int64
	for i := range b.bins {
		t += b.bins[i].Load()
	}
	return t
}

// MBPerSec renders the bins as a megabytes-per-second series — the
// unit the delta-vs-full overhead plots use.
func (b *ByteSeries) MBPerSec() []float64 {
	if b == nil {
		return nil
	}
	out := make([]float64, len(b.bins))
	for i := range b.bins {
		out[i] = float64(b.bins[i].Load()) / (1 << 20) / b.width
	}
	return out
}
