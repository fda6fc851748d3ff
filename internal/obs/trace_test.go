package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// manualClock is a deterministic test clock advanced by hand.
type manualClock struct{ now float64 }

func (c *manualClock) clock() func() float64 { return func() float64 { return c.now } }

func TestTracerSpansAndEvents(t *testing.T) {
	clk := &manualClock{}
	tr := NewTracer(TracerOptions{Clock: clk.clock(), FullFidelity: true})

	sp := tr.StartSpan(1, 1, "session").SetAttr(AttrStr("job", "m1/0"))
	clk.now = 2.5
	tr.Event(1, 1, "heartbeat", AttrFloat("gap_s", 2.5))
	clk.now = 4
	sp.End()
	tr.SpanAt(2, 1, "transfer", 1, 3, AttrInt("mb", 500), AttrBool("torn", false))
	tr.EventAt(2, 1, "fail", 9)

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Canonical order: pid 1 (heartbeat@2.5, session span@0), pid 2.
	if evs[0].Name != "session" || evs[0].Ts != 0 || evs[0].Dur != 4 {
		t.Errorf("first event = %+v, want session span [0,4]", evs[0])
	}
	if evs[1].Name != "heartbeat" || evs[1].Phase != PhaseInstant {
		t.Errorf("second event = %+v, want heartbeat instant", evs[1])
	}
	if evs[2].Name != "transfer" || evs[2].Dur != 3 {
		t.Errorf("third event = %+v, want transfer span dur 3", evs[2])
	}
	if got := evs[0].Attrs[0]; got.Key != "job" || got.Value() != "m1/0" {
		t.Errorf("session attr = %+v", got)
	}
}

func TestTracerRingEviction(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{RingCapacity: 3, Metrics: reg})
	for i := range 5 {
		tr.EventAt(1, 1, "e", float64(i))
	}
	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(snap))
	}
	// Oldest first: timestamps 2, 3, 4 survive.
	for i, want := range []float64{2, 3, 4} {
		if snap[i].Ts != want {
			t.Errorf("snap[%d].Ts = %g, want %g", i, snap[i].Ts, want)
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["obs_trace_ring_evictions_total"]; got != 2 {
		t.Errorf("eviction counter = %d, want 2", got)
	}
	if got := s.Counters["obs_trace_events_total"]; got != 5 {
		t.Errorf("emitted counter = %d, want 5", got)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(TracerOptions{FullFidelity: true, Clock: func() float64 { return 0 }})
	tr.SpanAt(1, 2, "work", 0.5, 1.5, AttrFloat("t_opt", 1000))
	tr.EventAt(1, 2, "mark", 2)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	// Must be a JSON array of objects with name/ph/ts/pid/tid.
	var raw []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("not valid JSON array: %v\n%s", err, buf.String())
	}
	if len(raw) != 2 {
		t.Fatalf("got %d objects, want 2", len(raw))
	}
	for i, obj := range raw {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := obj[key]; !ok {
				t.Errorf("event %d missing %q: %v", i, key, obj)
			}
		}
	}
	if raw[0]["ph"] != "X" || raw[0]["dur"] != 1.5e6 || raw[0]["ts"] != 0.5e6 {
		t.Errorf("span object = %v", raw[0])
	}
	if raw[1]["ph"] != "i" || raw[1]["s"] != "t" {
		t.Errorf("instant object = %v", raw[1])
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTracer(TracerOptions{FullFidelity: true, Clock: func() float64 { return 0 }})
	tr.SpanAt(3, 1, "transfer", 10, 110, AttrInt("seq", 7), AttrStr("kind", "recovery"))
	tr.EventAt(3, 1, "retry", 120, AttrBool("resumed", true))
	want := tr.Events()

	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteChromeTrace(b, want) },
		func(b *bytes.Buffer) error { return WriteTraceJSONL(b, want) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip: %d events, want %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Phase != w.Phase || g.Pid != w.Pid || g.Tid != w.Tid ||
				g.Ts != w.Ts || g.Dur != w.Dur || len(g.Attrs) != len(w.Attrs) {
				t.Errorf("event %d: got %+v, want %+v", i, g, w)
			}
		}
	}

	if _, err := ReadTrace(strings.NewReader("nonsense")); err == nil {
		t.Error("garbage input should error")
	}
	if evs, err := ReadTrace(strings.NewReader("  \n")); err != nil || len(evs) != 0 {
		t.Errorf("blank input: evs=%v err=%v", evs, err)
	}
}

// TestTracerDeterministicExport pins the export-order contract: events
// emitted from concurrent goroutines (one pid each, as the simulators
// do) serialize byte-identically regardless of interleaving.
func TestTracerDeterministicExport(t *testing.T) {
	render := func() []byte {
		tr := NewTracer(TracerOptions{FullFidelity: true, Clock: func() float64 { return 0 }})
		var wg sync.WaitGroup
		for pid := uint64(1); pid <= 8; pid++ {
			wg.Add(1)
			go func(pid uint64) {
				defer wg.Done()
				for i := range 50 {
					tr.SpanAt(pid, 1, "op", float64(i), 0.5, AttrInt("i", int64(i)))
				}
			}(pid)
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("concurrent emission produced different exports")
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(1, 1, "x").SetAttr(AttrStr("k", "v"))
	sp.End()
	sp.EndAt(3)
	tr.Event(1, 1, "e", AttrFloat("v", 1))
	tr.EventAt(1, 1, "e", 2)
	tr.SpanAt(1, 1, "s", 0, 1)
	if tr.Events() != nil || tr.Snapshot() != nil || tr.Now() != 0 {
		t.Error("nil tracer leaked state")
	}
	if err := tr.WriteFile("should-not-exist.json"); err != nil {
		t.Errorf("nil WriteFile: %v", err)
	}
	rec := httptest.NewRecorder()
	tr.SnapshotHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/snapshot", nil))
	var raw []any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil || len(raw) != 0 {
		t.Errorf("nil snapshot handler body = %q", rec.Body.String())
	}
}

func TestNilTracerAllocationFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan(1, 1, "session")
		sp.SetAttr(AttrFloat("t_opt", 1036), AttrStr("model", "weibull"))
		sp.End()
		tr.Event(1, 1, "heartbeat", AttrFloat("gap_s", 10))
		tr.SpanAt(1, 1, "transfer", 0, 110, AttrInt("mb", 500))
	})
	if allocs != 0 {
		t.Errorf("nil tracer path allocates %.1f/op, want 0", allocs)
	}
}

func TestSnapshotHandlerServesRing(t *testing.T) {
	tr := NewTracer(TracerOptions{RingCapacity: 8})
	tr.EventAt(1, 1, "boot", 0, AttrStr("v", "1"))
	rec := httptest.NewRecorder()
	tr.SnapshotHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/snapshot", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	evs, err := ReadTrace(rec.Body)
	if err != nil || len(evs) != 1 || evs[0].Name != "boot" {
		t.Errorf("snapshot round trip: evs=%v err=%v", evs, err)
	}
}

// TestAttrIntExactRoundTrip pins that integer attributes survive both
// export formats exactly, including values a float64 cannot represent
// (above 2^53 — the bug this test regresses: AttrInt used to store its
// value as a float).
func TestAttrIntExactRoundTrip(t *testing.T) {
	const big = int64(1)<<60 + 1 // rounds if it ever passes through float64
	tr := NewTracer(TracerOptions{FullFidelity: true, Clock: func() float64 { return 0 }})
	tr.SpanAt(1, 1, "transfer", 0, 1,
		AttrInt("bytes", big), AttrInt("neg", -big), AttrFloat("ratio", 0.25))
	want := tr.Events()
	if got := want[0].Attrs[0].Value(); got != any(big) {
		t.Fatalf("in-memory attr = %v (%T), want %d (int64)", got, got, big)
	}

	for name, write := range map[string]func(*bytes.Buffer) error{
		"chrome": func(b *bytes.Buffer) error { return WriteChromeTrace(b, want) },
		"jsonl":  func(b *bytes.Buffer) error { return WriteTraceJSONL(b, want) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if s := buf.String(); strings.Contains(s, "e+") || strings.Contains(s, "E+") {
			t.Errorf("%s: integer attr rendered with an exponent: %s", name, s)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		attrs := got[0].Attrs // fromChrome sorts by key: bytes, neg, ratio
		if v := attrs[0].Value(); v != any(big) {
			t.Errorf("%s: bytes = %v (%T), want %d (int64)", name, v, v, big)
		}
		if v := attrs[1].Value(); v != any(-big) {
			t.Errorf("%s: neg = %v (%T), want %d (int64)", name, v, v, -big)
		}
		if v := attrs[2].Value(); v != any(0.25) {
			t.Errorf("%s: ratio = %v (%T), want 0.25 (float64)", name, v, v)
		}
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes. It must never panic,
// and any trace it accepts must write back in both formats and read
// back from either as the same events.
func FuzzReadTrace(f *testing.F) {
	tr := NewTracer(TracerOptions{FullFidelity: true, Clock: func() float64 { return 0 }})
	tr.SpanAt(3, 1, "transfer", 10, 110.25, AttrInt("seq", 7), AttrStr("kind", "recovery"), AttrFloat("mb", 0.5))
	tr.EventAt(3, 1, "retry", 120, AttrBool("resumed", true))
	for _, write := range []func(io.Writer, []TraceEvent) error{WriteChromeTrace, WriteTraceJSONL} {
		var buf bytes.Buffer
		if err := write(&buf, tr.Events()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`[{"name":"c","ph":"C","ts":1,"pid":0,"tid":0,"args":{"n":1.5e3,"o":{"k":[1]}}}]`))
	f.Add([]byte(`{"name":"x","ph":"I","ts":-0,"pid":1,"tid":2}` + "\n" + `{"ph":"X","ts":2,"dur":1e-7}`))
	f.Add([]byte("nonsense"))
	f.Add([]byte(" \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var reread [2][]TraceEvent
		for i, write := range []func(io.Writer, []TraceEvent) error{WriteChromeTrace, WriteTraceJSONL} {
			var buf bytes.Buffer
			if err := write(&buf, evs); err != nil {
				t.Fatalf("writer %d rejected an accepted trace: %v", i, err)
			}
			if reread[i], err = ReadTrace(&buf); err != nil {
				t.Fatalf("writer %d output does not read back: %v\n%s", i, err, buf.Bytes())
			}
		}
		// An empty trace reads back as nil from JSONL and as an empty
		// slice from Chrome JSON; both are no events.
		if len(reread[0]) != len(evs) || len(reread[1]) != len(evs) ||
			len(evs) > 0 && !reflect.DeepEqual(reread[0], reread[1]) {
			t.Fatalf("chrome and jsonl round trips differ:\n%+v\n%+v", reread[0], reread[1])
		}
	})
}
