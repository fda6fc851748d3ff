package serve

import "github.com/cycleharvest/ckptsched/internal/obs"

// latencyBuckets is the interval-latency histogram layout: 50 µs
// floors (an in-process schedule lookup) through multi-second tails.
var latencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// serveMetrics holds one server's observability hooks. All fields are
// nil-safe obs metrics, so a server built without a registry pays one
// predictable branch per mutation (DESIGN.md §15 lists the names).
type serveMetrics struct {
	// requests counts every request that reached the router; shed the
	// ones admission control turned away with 429, and errors every
	// other non-2xx response.
	requests, shed, errors *obs.Counter
	// intervalLat is the interval route's latency, observed only for
	// lookups that produced a 2xx.
	intervalLat *obs.Histogram
	// Schedule-store accounting: completed builds, POSTs that joined an
	// in-flight or finished build instead of rebuilding, entries
	// dropped by the size bound, and the resident-entry gauge.
	builds, coalesced, evictions *obs.Counter
	resident                     *obs.Gauge
}

func (m *serveMetrics) register(r *obs.Registry) {
	m.requests = r.Counter("serve_requests_total",
		"Requests that reached the scheduling server's router.")
	m.shed = r.Counter("serve_shed_total",
		"Requests shed by admission control (HTTP 429).")
	m.errors = r.Counter("serve_errors_total",
		"Requests answered with a non-2xx status other than 429.")
	m.intervalLat = r.Histogram("serve_interval_latency_seconds",
		"Successful interval-lookup latency.", latencyBuckets)
	m.builds = r.Counter("serve_schedule_builds_total",
		"Schedules built and stored.")
	m.coalesced = r.Counter("serve_schedule_coalesced_total",
		"POST /v1/schedule requests served by an existing or in-flight build.")
	m.evictions = r.Counter("serve_schedule_evictions_total",
		"Stored schedules evicted by the size bound.")
	m.resident = r.Gauge("serve_schedules_resident",
		"Schedules currently resident in the store.")
}
