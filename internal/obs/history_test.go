package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistoryWindowSemantics pins the per-kind aggregation: counter
// deltas become rates over the actual inter-scrape interval, gauges
// record their last value, histograms report per-window observation
// rates and interpolated quantiles.
func TestHistoryWindowSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "t")
	g := reg.Gauge("depth", "t")
	fg := reg.FloatGauge("frac", "t")
	hist := reg.Histogram("lat_seconds", "t", []float64{0.1, 1, 10})

	h := NewHistory(HistoryOptions{Registry: reg, Window: 2, Capacity: 8})
	c.Add(1000) // pre-existing traffic: must not spike the first window
	h.Scrape(0) // baseline

	c.Add(40)
	g.Set(7)
	fg.Set(0.25)
	for i := 0; i < 10; i++ {
		hist.Observe(0.05) // first bucket
	}
	h.Scrape(2)

	c.Add(10)
	g.Set(3)
	hist.Observe(5) // third bucket
	h.Scrape(6)     // late scrape: dt = 4, not the nominal 2

	snap := h.Snapshot()
	if snap.Windows != 2 || snap.Total != 2 {
		t.Fatalf("windows = %d, total = %d", snap.Windows, snap.Total)
	}
	if got := snap.Times; got[0] != 2 || got[1] != 6 {
		t.Fatalf("times = %v", got)
	}
	if got := snap.Counters["reqs_total"]; got[0] != 20 || got[1] != 2.5 {
		t.Errorf("counter rates = %v, want [20 2.5]", got)
	}
	if got := snap.Gauges["depth"]; got[0] != 7 || got[1] != 3 {
		t.Errorf("gauge series = %v, want [7 3]", got)
	}
	if got := snap.Gauges["frac"]; got[0] != 0.25 || got[1] != 0.25 {
		t.Errorf("float gauge series = %v, want [0.25 0.25]", got)
	}
	lat := snap.Histograms["lat_seconds"]
	if lat.Rate[0] != 5 || lat.Rate[1] != 0.25 {
		t.Errorf("histogram rates = %v, want [5 0.25]", lat.Rate)
	}
	// Window 1: all 10 observations in [0, 0.1); p50 interpolates to
	// rank 5 of 10 → 0.05.
	if lat.P50[0] != 0.05 {
		t.Errorf("p50[0] = %g, want 0.05", lat.P50[0])
	}
	// Window 2: one observation in (1, 10]; every quantile lands there.
	if lat.P99[1] <= 1 || lat.P99[1] > 10 {
		t.Errorf("p99[1] = %g, want in (1,10]", lat.P99[1])
	}
}

// TestHistoryRingWrap fills past capacity and checks the ring keeps
// the newest windows, oldest first.
func TestHistoryRingWrap(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("v", "t")
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 3})
	h.Scrape(0)
	for i := 1; i <= 5; i++ {
		g.Set(int64(i))
		h.Scrape(float64(i))
	}
	snap := h.Snapshot()
	if snap.Windows != 3 || snap.Total != 5 {
		t.Fatalf("windows = %d, total = %d", snap.Windows, snap.Total)
	}
	if !reflect.DeepEqual(snap.Times, []float64{3, 4, 5}) {
		t.Errorf("times = %v", snap.Times)
	}
	if !reflect.DeepEqual(snap.Gauges["v"], []float64{3, 4, 5}) {
		t.Errorf("series = %v", snap.Gauges["v"])
	}
}

// TestHistoryIgnoresNonAdvancingScrapes pins the zero/negative-dt rule.
func TestHistoryIgnoresNonAdvancingScrapes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "t").Inc()
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 4})
	h.Scrape(5)
	h.Scrape(5) // same instant
	h.Scrape(3) // the past
	if snap := h.Snapshot(); snap.Windows != 0 {
		t.Fatalf("non-advancing scrapes emitted %d windows", snap.Windows)
	}
	h.Scrape(6)
	if snap := h.Snapshot(); snap.Windows != 1 {
		t.Fatalf("windows = %d, want 1", snap.Windows)
	}
}

// TestHistoryNilSafe: every method on a nil history is a no-op, the
// off switch the call sites rely on.
func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Scrape(1)
	h.OnScrape(func(float64) {})
	if h.Registry() != nil || h.Window() != 0 {
		t.Error("nil history leaked state")
	}
	if snap := h.Snapshot(); snap.Windows != 0 || snap.Counters != nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
	stop := h.StartScraper()
	stop()
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history", nil))
	if rec.Code != 200 {
		t.Errorf("nil handler = %d", rec.Code)
	}
}

// TestHistoryOnScrapeHook pins the ordering contract: hooks run before
// the registry snapshot, so a gauge refreshed in the hook lands in the
// very window that triggered it.
func TestHistoryOnScrapeHook(t *testing.T) {
	reg := NewRegistry()
	g := reg.FloatGauge("hooked", "t")
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 4})
	var stamps []float64
	h.OnScrape(func(ts float64) {
		stamps = append(stamps, ts)
		g.Set(ts * 10)
	})
	h.Scrape(1)
	h.Scrape(2)
	if !reflect.DeepEqual(stamps, []float64{1, 2}) {
		t.Fatalf("hook stamps = %v", stamps)
	}
	if got := h.Snapshot().Gauges["hooked"]; len(got) != 1 || got[0] != 20 {
		t.Errorf("hooked series = %v, want [20]", got)
	}
}

// TestHistoryConcurrentScrapeVsWrite hammers the registry from eight
// goroutines while scraping continuously — the -race coverage the
// wall-clock self-scraper needs, plus invariant checks on the result.
func TestHistoryConcurrentScrapeVsWrite(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "t")
	g := reg.Gauge("g", "t")
	hist := reg.Histogram("h_seconds", "t", []float64{0.001, 0.1, 1})
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 64})
	h.Scrape(0)

	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(i))
				hist.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	for ts := 1; ts <= 100; ts++ {
		h.Scrape(float64(ts))
	}
	close(stop)
	wg.Wait()

	snap := h.Snapshot()
	if snap.Windows != 64 || snap.Total != 100 {
		t.Fatalf("windows = %d, total = %d", snap.Windows, snap.Total)
	}
	var sum float64
	for i, r := range snap.Counters["c_total"] {
		if r < 0 {
			t.Fatalf("negative rate at window %d: %g", i, r)
		}
		sum += r
	}
	// Rates sum (times dt=1) to the counter increments seen across the
	// retained windows — they cannot exceed the counter's final value.
	if sum > float64(c.Value()) {
		t.Errorf("retained rates sum %.0f above counter value %d", sum, c.Value())
	}
	for i, p := range snap.Histograms["h_seconds"].P99 {
		if p < 0 || p > 1 {
			t.Errorf("p99[%d] = %g out of bucket range", i, p)
		}
	}
}

// TestHistoryJSONRoundTrip serves the snapshot over HTTP and decodes
// it back — the contract ckpt-report watch depends on.
func TestHistoryJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "t")
	hist := reg.Histogram("lat_seconds", "t", []float64{0.1, 1})
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 8})
	h.Scrape(0)
	c.Add(5)
	hist.Observe(0.05)
	h.Scrape(1)

	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/history", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var got HistorySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body.String())
	}
	if !reflect.DeepEqual(got, h.Snapshot()) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, h.Snapshot())
	}
}

// TestHistoryScraperLive runs the wall-clock self-scraper briefly and
// checks windows accumulate and stop() halts cleanly.
func TestHistoryScraperLive(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "t").Inc()
	h := NewHistory(HistoryOptions{Registry: reg, Window: 0.005, Capacity: 16})
	stop := h.StartScraper()
	deadline := time.Now().Add(5 * time.Second)
	for h.Snapshot().Windows == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scraper never produced a window")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	n := h.Snapshot().Total
	time.Sleep(20 * time.Millisecond)
	if got := h.Snapshot().Total; got != n {
		t.Errorf("scraper still running after stop: %d -> %d", n, got)
	}
}

// TestSLOBurn pins the burn-rate arithmetic: burn = bad-fraction over
// the window divided by the error budget, on both windows.
func TestSLOBurn(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(reg, "fit", 0.5, 0.99) // budget 0.01

	// Ten requests before the first sample: nine good, one bad (slow
	// success counts as bad).
	for i := 0; i < 8; i++ {
		s.Observe(0.01, true)
	}
	s.Observe(0.01, false) // failure
	s.Observe(2.0, true)   // slower than target
	if g, b := reg.Snapshot().Counters["slo_fit_good_total"], reg.Snapshot().Counters["slo_fit_bad_total"]; g != 8 || b != 2 {
		t.Fatalf("good/bad = %d/%d", g, b)
	}

	s.Update(0)
	// burn anchors at the oldest sample when history is shorter than
	// the window: 2 bad / 10 total / 0.01 budget — but the first sample
	// IS the anchor, so deltas are zero and burn reads 0.
	burn := func() (float64, float64) {
		snap := reg.Snapshot()
		return snap.FloatGauges["slo_fit_burn_5m"], snap.FloatGauges["slo_fit_burn_1h"]
	}
	if b5, b1 := burn(); b5 != 0 || b1 != 0 {
		t.Fatalf("first sample burn = %g/%g, want 0/0", b5, b1)
	}

	// Next window: 100 requests, 2 bad → bad fraction 0.02, burn 2.
	for i := 0; i < 98; i++ {
		s.Observe(0.01, true)
	}
	s.Observe(0.01, false)
	s.Observe(0.01, false)
	s.Update(60)
	if b5, b1 := burn(); !near(b5, 2) || !near(b1, 2) {
		t.Fatalf("burn = %g/%g, want 2/2", b5, b1)
	}

	// 400 s later the 5m window anchors at the ts=60 sample (clean
	// interval → burn 0) while the 1h window still sees the spike.
	s.Observe(0.01, true)
	s.Update(460)
	b5, b1 := burn()
	if b5 != 0 {
		t.Errorf("5m burn = %g, want 0 after the spike aged out", b5)
	}
	if b1 <= 0 {
		t.Errorf("1h burn = %g, want > 0 while the spike is in window", b1)
	}

	// Nil SLO no-ops.
	var nilSLO *SLO
	nilSLO.Observe(1, true)
	nilSLO.Update(1)
	nilSLO.Attach(nil)
}

// near compares within float rounding of the burn division chain.
func near(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

// TestSLOObjectivePanics pins the constructor's domain check.
func TestSLOObjectivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("objective 1.0 should panic")
		}
	}()
	NewSLO(NewRegistry(), "x", 1, 1.0)
}

// TestByteSeries covers binning, clamping, totals and rate conversion.
func TestByteSeries(t *testing.T) {
	w := NewByteSeries(10, 4) // 4 bins of 10 s
	w.Add(0, 100)
	w.Add(9.99, 50)
	w.Add(25, 200)
	w.Add(-5, 7)    // clamps into the first bin
	w.Add(1000, 13) // clamps into the last bin
	if got := w.Bins(); !reflect.DeepEqual(got, []int64{157, 0, 200, 13}) {
		t.Errorf("bins = %v", got)
	}
	if w.Total() != 370 {
		t.Errorf("total = %d", w.Total())
	}
	if w.Width() != 10 {
		t.Errorf("width = %g", w.Width())
	}
	rates := w.MBPerSec()
	wantRate := 157.0 / (10 * (1 << 20))
	if rates[0] != wantRate {
		t.Errorf("rate[0] = %g, want %g", rates[0], wantRate)
	}

	var nilW *ByteSeries
	nilW.Add(1, 1)
	if nilW.Total() != 0 || nilW.Bins() != nil || nilW.MBPerSec() != nil || nilW.Width() != 0 {
		t.Error("nil ByteSeries leaked state")
	}

	defer func() {
		if recover() == nil {
			t.Error("non-positive width should panic")
		}
	}()
	NewByteSeries(0, 4)
}

// TestByteSeriesConcurrentDeterministic: integer adds commute, so the
// bins are exact whatever the writer interleaving.
func TestByteSeriesConcurrentDeterministic(t *testing.T) {
	w := NewByteSeries(1, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Add(float64(i%8), 3)
			}
		}(g)
	}
	wg.Wait()
	for i, b := range w.Bins() {
		if b != 3000 {
			t.Fatalf("bin %d = %d, want 3000", i, b)
		}
	}
}

// TestRuntimeCollectorPrometheusRoundTrip registers the runtime
// collector, forces a collection, and parses the Prometheus exposition
// back — both runtime series must appear with a plausible value — then
// checks that, attached to a history, they surface in its snapshot.
func TestRuntimeCollectorPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	c.Collect()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())
	if samples["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %g", samples["go_goroutines"])
	}
	if samples["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %g", samples["go_heap_alloc_bytes"])
	}
	if len(samples) != 2 {
		t.Errorf("exposition holds %d samples, want the 2 go_* gauges: %v", len(samples), samples)
	}

	// Attached to a history, Collect runs on every scrape and the
	// series surface in the snapshot.
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 4})
	c.Attach(h)
	h.Scrape(0)
	h.Scrape(1)
	snap := h.Snapshot()
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("history missing %s", name)
		}
	}
}

// parseExposition reads "name value" sample lines from Prometheus text
// format into a map (labels kept verbatim in the name key).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestSparkline pins the renderer: right-aligned, min-max scaled,
// all-equal series renders lowest bars.
func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8); got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp = %q", got)
	}
	if got := Sparkline([]float64{5, 5, 5}, 3); got != "▁▁▁" {
		t.Errorf("flat = %q", got)
	}
	if got := Sparkline([]float64{1, 9}, 4); got != "  ▁█" {
		t.Errorf("padded = %q", got)
	}
	if got := Sparkline([]float64{0, 1, 2, 9}, 2); got != "▁█" {
		t.Errorf("truncated = %q, want newest two", got)
	}
	if got := Sparkline(nil, 0); got != "" {
		t.Errorf("empty = %q", got)
	}
}

// BenchmarkHistoryScrape gates the per-window scrape cost over a
// registry the size of a real server's (DESIGN.md §17): O(metrics)
// with a bounded constant, since the self-scraper shares cores with
// the serving hot path.
func BenchmarkHistoryScrape(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Counter("c"+string(rune('a'+i))+"_total", "b").Add(uint64(i))
		reg.Gauge("g"+string(rune('a'+i)), "b").Set(int64(i))
	}
	for i := 0; i < 4; i++ {
		h := reg.Histogram("h"+string(rune('a'+i))+"_seconds", "b", []float64{0.001, 0.01, 0.1, 1, 10})
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) / 50)
		}
	}
	h := NewHistory(HistoryOptions{Registry: reg, Window: 1, Capacity: 512})
	h.Scrape(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Scrape(float64(i + 1))
	}
}

// BenchmarkHistoryNil gates the off switch: a nil history's Scrape
// must stay allocation-free (and near-zero cost), since every
// accounting site calls it unconditionally.
func BenchmarkHistoryNil(b *testing.B) {
	var h *History
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Scrape(float64(i))
	}
}
