package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// kind discriminates registered metric types.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindFloatGauge:
		// Prometheus has a single gauge type; the int/float split is an
		// internal storage decision, not a wire-format one.
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// metric is one registered name with its typed instance.
type metric struct {
	name, help string
	kind       kind
	c          *Counter
	g          *Gauge
	fg         *FloatGauge
	h          *Histogram
}

// Registry holds named metrics. Registration is get-or-create and
// idempotent: asking for an existing name of the same kind returns the
// same instance, so independent subsystems (or repeated simulation
// runs) can resolve their metrics without coordination. Re-registering
// a name as a different kind panics — that is a programming error, not
// a runtime condition.
//
// A nil *Registry is valid everywhere: registration returns nil
// metrics (whose methods no-op) and expositions render empty. That is
// the off switch — benchmarks and library callers simply pass nil.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// lookup returns the metric registered under name, creating it with
// mk when absent.
func (r *Registry) lookup(name, help string, k kind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, m.kind, k))
		}
		return m
	}
	m := mk()
	m.name, m.help, m.kind = name, help, k
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, func() *metric {
		return &metric{c: &Counter{}}
	}).c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, func() *metric {
		return &metric{g: &Gauge{}}
	}).g
}

// FloatGauge returns the float gauge registered under name, creating
// it on first use. Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindFloatGauge, func() *metric {
		return &metric{fg: &FloatGauge{}}
	}).fg
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later calls reuse the
// original bounds). Returns nil (a valid no-op histogram) on a nil
// registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, func() *metric {
		return &metric{h: NewHistogram(bounds)}
	}).h
}

// sorted returns the registered metrics in name order — the canonical
// exposition order that makes snapshots deterministic.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// HistogramSnapshot is the exported state of one histogram. Counts has
// one entry per bound plus a final +Inf overflow slot; Counts[i] is
// the number of observations v with Bounds[i-1] < v <= Bounds[i]
// (per-bucket, not cumulative).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every registered metric, keyed
// by name. It JSON-encodes deterministically (Go marshals maps in key
// order), which is what the CLIs' -stats dumps rely on.
type Snapshot struct {
	Counters    map[string]uint64            `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	FloatGauges map[string]float64           `json:"float_gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every metric. A nil registry
// yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[m.name] = m.c.Value()
		case kindGauge:
			if s.Gauges == nil {
				s.Gauges = make(map[string]int64)
			}
			s.Gauges[m.name] = m.g.Value()
		case kindFloatGauge:
			if s.FloatGauges == nil {
				s.FloatGauges = make(map[string]float64)
			}
			s.FloatGauges[m.name] = m.fg.Value()
		case kindHistogram:
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistogramSnapshot)
			}
			s.Histograms[m.name] = m.h.snapshot()
		}
	}
	return s
}

// fmtFloat renders a float the way the Prometheus text format expects
// (shortest round-trip representation; +Inf spelled "+Inf").
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4), metrics in name order: a HELP and TYPE line
// per metric, histograms expanded into cumulative le-labelled buckets
// plus _sum and _count series. A nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, m := range r.sorted() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
			return err
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value()); err != nil {
				return err
			}
		case kindFloatGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(m.fg.Value())); err != nil {
				return err
			}
		case kindHistogram:
			s := m.h.snapshot()
			cum := uint64(0)
			for i, c := range s.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fmtFloat(s.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.name, fmtFloat(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", m.name, s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns an http.Handler serving the text exposition —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
