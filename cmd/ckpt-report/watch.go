package main

// The watch subcommand is the live half of ckpt-report: where timeline
// replays a finished trace, watch polls a running server's
// /metrics/history endpoint (ckpt-served or ckpt-mgr -metrics) and
// renders the windowed series as a terminal dashboard — request rate,
// tail latency, bytes on the wire, runtime health, and error-budget
// burn, each as a sparkline with the newest window on the right. It
// reads only the public history JSON, so anything that serves the
// DESIGN.md §17 schema can be watched.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

type watchOptions struct {
	url      string
	interval time.Duration
	width    int
	once     bool
}

// watchPanel names one dashboard row: a label, the series it plots,
// and how to scale it for display.
type watchPanel struct {
	label string
	name  string // metric name
	kind  watchKind
	scale float64 // display = value * scale
	unit  string
}

type watchKind int

const (
	watchCounter watchKind = iota // rate series
	watchGauge
	watchHistP99
)

// watchPanels is the fixed dashboard layout, covering both the
// scheduling service (serve_*) and the checkpoint manager (ckptnet_*).
// Panels whose metrics the server does not register are skipped, and
// whatever SLO burn gauges exist are appended dynamically.
var watchPanels = []watchPanel{
	{label: "req/s", name: "serve_requests_total", kind: watchCounter, scale: 1},
	{label: "interval p99", name: "serve_interval_latency_seconds", kind: watchHistP99, scale: 1e3, unit: "ms"},
	{label: "checkpoints/s", name: "ckptnet_checkpoints_total", kind: watchCounter, scale: 1},
	{label: "wire MB/s", name: "ckptnet_bytes_moved_total", kind: watchCounter, scale: 1.0 / (1 << 20)},
	{label: "goroutines", name: "go_goroutines", kind: watchGauge, scale: 1},
	{label: "heap MB", name: "go_heap_alloc_bytes", kind: watchGauge, scale: 1.0 / (1 << 20)},
}

func runWatch(opts watchOptions, w io.Writer) error {
	if opts.url == "" {
		return fmt.Errorf("missing -url")
	}
	url := strings.TrimSuffix(opts.url, "/") + "/metrics/history"
	for {
		snap, err := fetchHistory(url)
		if err != nil {
			return err
		}
		frame := renderWatch(snap, opts.width, opts.url)
		if !opts.once {
			// Home the cursor and clear below rather than wiping the whole
			// screen — no flicker at 1 Hz.
			fmt.Fprint(w, "\x1b[H\x1b[2J")
		}
		io.WriteString(w, frame)
		if opts.once {
			return nil
		}
		time.Sleep(opts.interval)
	}
}

func fetchHistory(url string) (obs.HistorySnapshot, error) {
	var snap obs.HistorySnapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode %s: %w", url, err)
	}
	return snap, nil
}

// renderWatch lays out one dashboard frame from a history snapshot.
func renderWatch(snap obs.HistorySnapshot, width int, source string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s · %d windows × %gs · total %d\n\n",
		source, snap.Windows, snap.WindowSeconds, snap.Total)
	if snap.Windows == 0 {
		b.WriteString("waiting for the first completed window...\n")
		return b.String()
	}
	for _, p := range watchPanels {
		series, ok := lookupSeries(snap, p)
		if !ok {
			continue
		}
		writePanel(&b, p.label, p.unit, series, p.scale, width)
	}
	// Every slo_*_burn_* gauge the server exports gets a row, sorted so
	// the layout is stable frame to frame.
	var burns []string
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "slo_") && strings.Contains(name, "_burn_") {
			burns = append(burns, name)
		}
	}
	sort.Strings(burns)
	for _, name := range burns {
		label := strings.ReplaceAll(strings.TrimPrefix(name, "slo_"), "_", " ")
		writePanel(&b, label, "", snap.Gauges[name], 1, width)
	}
	return b.String()
}

func lookupSeries(snap obs.HistorySnapshot, p watchPanel) ([]float64, bool) {
	switch p.kind {
	case watchCounter:
		s, ok := snap.Counters[p.name]
		return s, ok
	case watchGauge:
		s, ok := snap.Gauges[p.name]
		return s, ok
	}
	h, ok := snap.Histograms[p.name]
	return h.P99, ok
}

// writePanel renders one row: label, sparkline, and the newest value.
func writePanel(b *strings.Builder, label, unit string, series []float64, scale float64, width int) {
	scaled := make([]float64, len(series))
	var lo, hi float64
	for i, v := range series {
		sv := v * scale
		scaled[i] = sv
		if i == 0 || sv < lo {
			lo = sv
		}
		if i == 0 || sv > hi {
			hi = sv
		}
	}
	cur := 0.0
	if len(scaled) > 0 {
		cur = scaled[len(scaled)-1]
	}
	fmt.Fprintf(b, "%-22s %s %10.3g%s  (min %.3g, max %.3g)\n",
		label, obs.Sparkline(scaled, width), cur, unit, lo, hi)
}
