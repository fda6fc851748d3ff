// Package condor is a discrete-event simulation of a Condor-style
// cycle-harvesting pool: desktop machines alternate between
// owner-busy and harvestable-idle periods, a matchmaker assigns queued
// Vanilla-universe jobs (terminate-on-eviction, §4 of the paper) to
// idle machines, and an occupancy monitor — the paper's measurement
// sensor — records how long each job held each machine.
//
// The package substitutes for the live University of Wisconsin Condor
// pool the paper measured for 18 months: everything downstream
// consumes only the per-machine sequences of availability durations
// the monitor produces, plus the (machine, T_elapsed, eviction-time)
// allocations the live-experiment harness draws.
package condor

import "container/heap"

// event is a scheduled callback in virtual time.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a virtual-time event loop. The zero value is ready to use
// at time 0.
type Clock struct {
	now    float64
	seq    uint64
	events eventHeap
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Schedule registers fn to run after delay seconds (clamped to now for
// negative delays).
func (c *Clock) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&c.events, &event{at: c.now + delay, seq: c.seq, fn: fn})
	c.seq++
}

// Step fires the next pending event, returning false when none
// remain.
func (c *Clock) Step() bool {
	if c.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&c.events).(*event)
	c.now = e.at
	e.fn()
	return true
}

// RunUntil fires events in order until virtual time would pass t (the
// clock ends at exactly t) or no events remain.
func (c *Clock) RunUntil(t float64) {
	for c.events.Len() > 0 && c.events[0].at <= t {
		c.Step()
	}
	if c.now < t {
		c.now = t
	}
}
