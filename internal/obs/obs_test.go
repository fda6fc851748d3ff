package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("jobs_total", "jobs"); again != c {
		t.Error("re-registration did not return the same counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	g.SetMax(3)
	if g.Value() != 5 {
		t.Error("SetMax lowered the gauge")
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Errorf("SetMax = %d, want 11", g.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound ("le")
// semantics, including observations landing exactly on a bound and in
// the +Inf overflow slot.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 1.0000001, 5, 7, 10, 11, math.Inf(1)} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []uint64{2, 2, 2, 2} // (-inf,1], (1,5], (5,10], (10,+inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	if !math.IsInf(s.Sum, 1) {
		t.Errorf("sum = %g, want +Inf", s.Sum)
	}

	// NaN must not corrupt a finite bucket: it lands in +Inf.
	h2 := NewHistogram([]float64{1})
	h2.Observe(math.NaN())
	if s2 := h2.snapshot(); s2.Counts[0] != 0 || s2.Counts[1] != 1 {
		t.Errorf("NaN bucketed as %v", s2.Counts)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

// TestSnapshotDeterminism requires two registries populated in
// different orders to JSON-encode byte-identically.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name, "help for "+name)
		}
		r.Gauge("zz_gauge", "").Set(3)
		r.Histogram("hh_seconds", "", []float64{1, 2}).Observe(1.5)
		r.Counter(order[0], "").Add(2)
		return r
	}
	a := build([]string{"b_total", "a_total", "c_total"})
	b := build([]string{"c_total", "b_total", "a_total"})
	// Equalize the values (order[0] differs above).
	a.Counter("c_total", "").Add(2)
	b.Counter("b_total", "").Add(2)

	ja, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("snapshots differ:\n%s\n%s", ja, jb)
	}

	var ta, tb bytes.Buffer
	if err := a.WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Errorf("text expositions differ:\n%s\n%s", ta.String(), tb.String())
	}
}

// TestWriteTextGolden pins the Prometheus text format byte-for-byte —
// the exposition is a stable contract (DESIGN.md §11).
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ckpt_retries_total", "Session resumptions.").Add(3)
	r.Gauge("ckpt_active_sessions", "Live sessions.").Set(2)
	h := r.Histogram("ckpt_gap_seconds", "Heartbeat gaps.", []float64{0.5, 2.5})
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(100)

	const want = `# HELP ckpt_active_sessions Live sessions.
# TYPE ckpt_active_sessions gauge
ckpt_active_sessions 2
# HELP ckpt_gap_seconds Heartbeat gaps.
# TYPE ckpt_gap_seconds histogram
ckpt_gap_seconds_bucket{le="0.5"} 2
ckpt_gap_seconds_bucket{le="2.5"} 3
ckpt_gap_seconds_bucket{le="+Inf"} 4
ckpt_gap_seconds_sum 101.5
ckpt_gap_seconds_count 4
# HELP ckpt_retries_total Session resumptions.
# TYPE ckpt_retries_total counter
ckpt_retries_total 3
`
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("text exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestNilRegistryAndMetrics pins the off switch: every operation on a
// nil registry or nil metric is a safe no-op and expositions render
// empty.
func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c_seconds", "", DefBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live metrics")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	g.SetMax(9)
	h.Observe(0.1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics accumulated state")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteText = %q, %v", buf.String(), err)
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("nil Snapshot = %+v", s)
	}
}

// TestNilFastPathAllocationFree proves the contractual property the
// gated benchmarks depend on: instrumentation against a nil registry
// allocates nothing.
func TestNilFastPathAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c_seconds", "", DefBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.SetMax(2)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Errorf("nil fast path allocates %.1f objects per op", allocs)
	}
}

func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("peak", "")
	h := r.Histogram("v", "", []float64{10, 100})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per-1 {
		t.Errorf("gauge max = %d, want %d", g.Value(), workers*per-1)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d", h.Count())
	}
	s := h.snapshot()
	var total uint64
	for _, n := range s.Counts {
		total += n
	}
	if total != h.Count() {
		t.Errorf("bucket sum %d != count %d", total, h.Count())
	}
}

// TestPrometheusExposition round-trips the text exposition: parse
// every sample line back and check the histogram's cumulative +Inf
// bucket, _count and _sum agree with the Snapshot of the same
// registry.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ckpt_exp_total", "a counter").Add(7)
	r.Gauge("ckpt_exp_gauge", "a gauge").Set(-3)
	h := r.Histogram("ckpt_exp_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparsable sample line %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		samples[name] = f
	}

	snap := r.Snapshot()
	if got := samples["ckpt_exp_total"]; got != float64(snap.Counters["ckpt_exp_total"]) || got != 7 {
		t.Errorf("counter sample %g, snapshot %d", got, snap.Counters["ckpt_exp_total"])
	}
	if got := samples["ckpt_exp_gauge"]; got != -3 {
		t.Errorf("gauge sample %g, want -3", got)
	}

	hs := snap.Histograms["ckpt_exp_seconds"]
	// The +Inf bucket is cumulative: it must equal _count and the
	// total observation count.
	inf := samples[`ckpt_exp_seconds_bucket{le="+Inf"}`]
	if inf != float64(hs.Count) || samples["ckpt_exp_seconds_count"] != float64(hs.Count) || hs.Count != 5 {
		t.Errorf("+Inf bucket %g, _count %g, snapshot count %d",
			inf, samples["ckpt_exp_seconds_count"], hs.Count)
	}
	if got := samples["ckpt_exp_seconds_sum"]; math.Abs(got-hs.Sum) > 1e-9 || math.Abs(got-56.05) > 1e-9 {
		t.Errorf("_sum %g, snapshot %g, want 56.05", got, hs.Sum)
	}
	// Cumulative buckets must be monotone and match the per-bucket
	// snapshot counts when re-differenced.
	cum := uint64(0)
	for i, le := range []string{"0.1", "1", "10", "+Inf"} {
		got := samples[`ckpt_exp_seconds_bucket{le="`+le+`"}`]
		cum += hs.Counts[i]
		if got != float64(cum) {
			t.Errorf("bucket le=%s: exposition %g, snapshot cumulative %d", le, got, cum)
		}
	}
}

// TestSnapshotJSONShape pins the -stats dump's shape: a Snapshot
// encodes as one JSON object with counters/gauges/histograms maps,
// empty maps omitted.
func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("ckpt_stats_total", "").Inc()
	r.Histogram("ckpt_stats_seconds", "", []float64{1}).Observe(0.5)

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "histograms"} {
		if _, ok := got[key]; !ok {
			t.Errorf("snapshot JSON missing %q: %s", key, raw)
		}
	}
	if _, ok := got["gauges"]; ok {
		t.Error("empty gauge map should be omitted")
	}
	var hist struct {
		H map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	hs := hist.H["ckpt_stats_seconds"]
	if hs.Count != 1 || len(hs.Counts) != len(hs.Bounds)+1 {
		t.Errorf("histogram shape: %+v (want count 1, len(counts)=len(bounds)+1)", hs)
	}
}
