package obs

// Runtime telemetry as ordinary obs metrics: goroutine count and heap
// size, registered under go_* names (DESIGN.md §11) and refreshed by
// an explicit Collect call — which the server wiring hangs off
// History.OnScrape so every window carries a fresh reading. Nothing
// here runs on simulator clocks: runtime state is inherently
// nondeterministic, so simulations simply never attach the collector
// and their histories stay byte-identical.

import "runtime/metrics"

// RuntimeCollector mirrors Go runtime state into a Registry. Build
// with NewRuntimeCollector, refresh with Collect; a nil collector
// no-ops, so callers can pass one through unconditionally.
type RuntimeCollector struct {
	goroutines *Gauge
	heapAlloc  *Gauge
	// samples reads both values in one runtime/metrics.Read, which
	// (unlike runtime.ReadMemStats) does not stop the world.
	samples []metrics.Sample
}

// NewRuntimeCollector registers the go_* metrics on reg and returns a
// collector. Returns nil on a nil registry.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	if reg == nil {
		return nil
	}
	return &RuntimeCollector{
		goroutines: reg.Gauge("go_goroutines", "Current number of goroutines."),
		heapAlloc:  reg.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects."),
		samples: []metrics.Sample{
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/memory/classes/heap/objects:bytes"},
		},
	}
}

// Attach hangs Collect off the history's scrape cycle, so every
// window records fresh runtime state. Nil-safe on both sides.
func (c *RuntimeCollector) Attach(h *History) {
	if c == nil {
		return
	}
	h.OnScrape(func(float64) { c.Collect() })
}

// Collect overwrites the go_* gauges with current runtime state.
// Nil-safe.
func (c *RuntimeCollector) Collect() {
	if c == nil {
		return
	}
	metrics.Read(c.samples)
	c.goroutines.Set(int64(c.samples[0].Value.Uint64()))
	c.heapAlloc.Set(int64(c.samples[1].Value.Uint64()))
}
