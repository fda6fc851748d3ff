package obs

// This file is the span/event tracing half of the observability layer:
// where the metrics half (obs.go, registry.go) answers "how much", the
// tracer answers "in what order, and why". It produces a causal
// timeline — spans with a start, a duration and attributes, plus point
// events — that the manager, the simulators and the schedule builder
// feed from their own clocks.
//
// Two properties are contractual, mirroring the metrics layer:
//
//   - Off-path cheap. A nil *Tracer (and the nil *Span it hands out)
//     no-ops on every method and allocates nothing, so call sites stay
//     unconditional. The nil fast path is pinned by
//     BenchmarkObsNilTracer in CI.
//
//   - Deterministic export. Events carry explicit timestamps wherever
//     the emitting subsystem runs on a simulated clock, and Events()
//     orders the full-fidelity sink by (pid, tid, ts, emission seq).
//     Within one pid events are emitted by a single goroutine, so the
//     sorted export of a deterministic simulation is byte-identical at
//     any GOMAXPROCS — the same discipline as parallel.RunGrid.
//     DESIGN.md §12 states the clock rules.
//
// Exports: Chrome trace-event JSON (an array of {name, ph, ts, pid,
// tid} objects loadable in Perfetto or chrome://tracing) and a compact
// JSONL form (the same objects, one per line) that ckpt-report
// timeline replays. A fixed-capacity ring buffer — the flight
// recorder — always retains the last-N events for live inspection
// (/debug/trace/snapshot on the manager's metrics server), with
// evictions counted in an obs metric.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr kinds. Attrs carry typed values in plain struct fields rather
// than an interface so building one never boxes (the nil-tracer path
// must not allocate).
const (
	attrFloat = iota
	attrStr
	attrBool
	attrInt
)

// Attr is one key/value span or event attribute. Construct with
// AttrFloat, AttrInt, AttrStr, or AttrBool.
type Attr struct {
	Key  string
	kind uint8
	f    float64
	i    int64
	s    string
	b    bool
}

// AttrFloat returns a numeric attribute.
func AttrFloat(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// AttrInt returns an integer attribute. Integers keep their own kind
// (not a float64 in disguise) so values beyond 2⁵³ — byte totals on a
// busy link clear it — survive export and re-import exactly.
func AttrInt(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// AttrStr returns a string attribute.
func AttrStr(key, v string) Attr { return Attr{Key: key, kind: attrStr, s: v} }

// AttrBool returns a boolean attribute.
func AttrBool(key string, v bool) Attr { return Attr{Key: key, kind: attrBool, b: v} }

// Value returns the attribute's value as an any (for rendering).
func (a Attr) Value() any {
	switch a.kind {
	case attrStr:
		return a.s
	case attrBool:
		return a.b
	case attrInt:
		return a.i
	}
	return a.f
}

// Trace-event phases (the Chrome trace-event "ph" field subset the
// tracer emits).
const (
	// PhaseSpan is a complete span: Ts start, Dur duration.
	PhaseSpan = 'X'
	// PhaseInstant is a point event: Ts only.
	PhaseInstant = 'i'
)

// TraceEvent is one completed span or instant event. Times are seconds
// on the emitting subsystem's clock (wall for the live manager,
// simulated for the simulators — see DESIGN.md §12).
type TraceEvent struct {
	// Name identifies the operation (DESIGN.md §12 lists the names
	// each subsystem emits).
	Name string
	// Phase is PhaseSpan or PhaseInstant.
	Phase byte
	// Pid and Tid place the event on a track: pid is the unit of
	// isolation (a session, a sample, a grid cell), tid a sequential
	// actor within it (a connection attempt, a worker).
	Pid, Tid uint64
	// Ts is the start time in seconds; Dur the span duration (zero
	// for instants).
	Ts, Dur float64
	// Attrs are the event's attributes, in emission order.
	Attrs []Attr

	// seq is the global emission order, assigned by the tracer. Within
	// one pid (a single emitting goroutine) it preserves program
	// order, which is what makes the sorted export deterministic.
	seq uint64
}

// TracerOptions configures NewTracer. The zero value gives a
// wall-clock tracer with a 4096-event flight recorder and no
// full-fidelity sink.
type TracerOptions struct {
	// Clock supplies "now" in seconds for the convenience methods
	// (StartSpan, Event). Defaults to wall time since tracer creation.
	// Subsystems on simulated time bypass it with the ...At variants.
	// Test seam: every program keeps the default; the obs tests pin
	// wall-clock spans to exact timestamps with it.
	Clock func() float64
	// RingCapacity sizes the flight recorder (default 4096; negative
	// disables the ring). Test seam: every program keeps the default;
	// the tests shrink the ring to force evictions or disable it.
	RingCapacity int
	// FullFidelity retains every event in memory for WriteFile /
	// Events() export. Leave false for long-lived servers that only
	// need the flight recorder.
	FullFidelity bool
	// Metrics, when set, registers the tracer's eviction and emission
	// counters (obs_trace_events_total, obs_trace_ring_evictions_total).
	Metrics *Registry
}

// Tracer records spans and events. A nil *Tracer is the off switch:
// every method (and every method of the nil *Span it returns) is an
// allocation-free no-op.
type Tracer struct {
	clock func() float64

	emitted   *Counter // registry-backed, nil when uninstrumented
	evictions *Counter

	mu      sync.Mutex
	seq     uint64
	ring    []TraceEvent // capacity ringCap, oldest at ringHead once full
	ringCap int
	head    int
	full    []TraceEvent // full-fidelity sink, nil when disabled
	keep    bool
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	clock := opts.Clock
	if clock == nil {
		start := time.Now()
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	ringCap := opts.RingCapacity
	if ringCap == 0 {
		ringCap = 4096
	}
	if ringCap < 0 {
		ringCap = 0
	}
	t := &Tracer{
		clock:   clock,
		ringCap: ringCap,
		keep:    opts.FullFidelity,
		emitted: opts.Metrics.Counter("obs_trace_events_total",
			"Trace spans and instant events emitted."),
		evictions: opts.Metrics.Counter("obs_trace_ring_evictions_total",
			"Trace events evicted from the flight-recorder ring (dropped from the snapshot)."),
	}
	return t
}

// Now returns the tracer's clock reading (zero for a nil tracer).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// emit records one completed event.
func (t *Tracer) emit(ev TraceEvent) {
	evicted := false
	t.mu.Lock()
	ev.seq = t.seq
	t.seq++
	if t.ringCap > 0 {
		if len(t.ring) < t.ringCap {
			t.ring = append(t.ring, ev)
		} else {
			t.ring[t.head] = ev
			t.head = (t.head + 1) % t.ringCap
			evicted = true
		}
	}
	if t.keep {
		t.full = append(t.full, ev)
	}
	t.mu.Unlock()
	t.emitted.Inc()
	if evicted {
		t.evictions.Inc()
	}
}

// Span is an in-flight span handle. A nil *Span (what a nil tracer
// hands out) no-ops on every method.
type Span struct {
	t     *Tracer
	name  string
	pid   uint64
	tid   uint64
	start float64
	attrs []Attr
}

// StartSpan opens a span timed by the tracer's clock.
func (t *Tracer) StartSpan(pid, tid uint64, name string) *Span {
	if t == nil {
		return nil
	}
	return t.StartSpanAt(pid, tid, name, t.clock())
}

// StartSpanAt opens a span with an explicit start time — the form
// simulated-time subsystems use.
func (t *Tracer) StartSpanAt(pid, tid uint64, name string, ts float64) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, pid: pid, tid: tid, start: ts}
}

// SetAttr appends attributes to the span and returns it for chaining.
func (sp *Span) SetAttr(attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	sp.attrs = append(sp.attrs, attrs...)
	return sp
}

// End closes the span at the tracer's clock reading.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.EndAt(sp.t.clock())
}

// EndAt closes the span at an explicit end time.
func (sp *Span) EndAt(ts float64) {
	if sp == nil {
		return
	}
	dur := ts - sp.start
	if dur < 0 {
		dur = 0
	}
	sp.t.emit(TraceEvent{
		Name: sp.name, Phase: PhaseSpan,
		Pid: sp.pid, Tid: sp.tid,
		Ts: sp.start, Dur: dur, Attrs: sp.attrs,
	})
}

// Event records an instant event at the tracer's clock reading.
func (t *Tracer) Event(pid, tid uint64, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.EventAt(pid, tid, name, t.clock(), attrs...)
}

// EventAt records an instant event at an explicit time.
func (t *Tracer) EventAt(pid, tid uint64, name string, ts float64, attrs ...Attr) {
	if t == nil {
		return
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	t.emit(TraceEvent{
		Name: name, Phase: PhaseInstant,
		Pid: pid, Tid: tid, Ts: ts, Attrs: as,
	})
}

// SpanAt records an already-completed span with explicit start and
// duration — the form event-calendar simulators use when a span's
// bounds are only known at completion.
func (t *Tracer) SpanAt(pid, tid uint64, name string, ts, dur float64, attrs ...Attr) {
	if t == nil {
		return
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	if dur < 0 {
		dur = 0
	}
	t.emit(TraceEvent{
		Name: name, Phase: PhaseSpan,
		Pid: pid, Tid: tid, Ts: ts, Dur: dur, Attrs: as,
	})
}

// eventSort is the canonical export order: by pid, then tid, then
// timestamp, with emission order breaking ties. Each pid is emitted by
// one goroutine, so this order — unlike raw emission order, which
// interleaves concurrent pids nondeterministically — depends only on
// what the program computed, not on scheduling.
func eventSort(evs []TraceEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		return a.seq < b.seq
	})
}

// Events returns the full-fidelity sink in canonical order (empty
// unless the tracer was built with FullFidelity; nil-safe).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TraceEvent, len(t.full))
	copy(out, t.full)
	t.mu.Unlock()
	eventSort(out)
	return out
}

// Snapshot returns the flight recorder's current contents, oldest
// first (nil-safe). Unlike Events, the snapshot reflects live emission
// order and is bounded by RingCapacity; Dropped reports how much
// history has been evicted.
func (t *Tracer) Snapshot() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// chromeEvent is the wire form of one event: a Chrome trace-event
// object (ts and dur in microseconds). The same object is one line of
// the JSONL format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   uint64         `json:"pid"`
	Tid   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func toChrome(ev TraceEvent) chromeEvent {
	ce := chromeEvent{
		Name:  ev.Name,
		Phase: string(ev.Phase),
		Ts:    ev.Ts * 1e6,
		Pid:   ev.Pid,
		Tid:   ev.Tid,
	}
	if ev.Phase == PhaseSpan {
		d := ev.Dur * 1e6
		ce.Dur = &d
	} else {
		ce.Scope = "t"
	}
	if len(ev.Attrs) > 0 {
		// A map renders deterministically: encoding/json sorts keys.
		ce.Args = make(map[string]any, len(ev.Attrs))
		for _, a := range ev.Attrs {
			ce.Args[a.Key] = a.Value()
		}
	}
	return ce
}

func fromChrome(ce chromeEvent) (TraceEvent, error) {
	if ce.Phase == "" {
		return TraceEvent{}, errors.New("obs: trace event without ph")
	}
	ev := TraceEvent{
		Name: ce.Name,
		Pid:  ce.Pid,
		Tid:  ce.Tid,
		Ts:   ce.Ts / 1e6,
	}
	switch ce.Phase[0] {
	case PhaseSpan:
		ev.Phase = PhaseSpan
		if ce.Dur != nil {
			ev.Dur = *ce.Dur / 1e6
		}
	case PhaseInstant, 'I': // legacy spelling
		ev.Phase = PhaseInstant
	default:
		// Foreign phases (counters, metadata…) survive a round trip as
		// instants so a trace produced elsewhere still renders.
		ev.Phase = PhaseInstant
	}
	if len(ce.Args) > 0 {
		keys := make([]string, 0, len(ce.Args))
		for k := range ce.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch v := ce.Args[k].(type) {
			case string:
				ev.Attrs = append(ev.Attrs, AttrStr(k, v))
			case bool:
				ev.Attrs = append(ev.Attrs, AttrBool(k, v))
			case float64:
				ev.Attrs = append(ev.Attrs, AttrFloat(k, v))
			case int64:
				ev.Attrs = append(ev.Attrs, AttrInt(k, v))
			case json.Number:
				// Integers re-import as integers (ReadTrace decodes with
				// UseNumber so they arrive here undamaged); anything with a
				// fraction or exponent is a float.
				if i, err := v.Int64(); err == nil {
					ev.Attrs = append(ev.Attrs, AttrInt(k, i))
					continue
				}
				f, err := v.Float64()
				if err != nil {
					return TraceEvent{}, fmt.Errorf("obs: trace arg %q: %w", k, err)
				}
				ev.Attrs = append(ev.Attrs, AttrFloat(k, f))
			default:
				ev.Attrs = append(ev.Attrs, AttrStr(k, fmt.Sprint(v)))
			}
		}
	}
	return ev, nil
}

// WriteChromeTrace writes events as Chrome trace-event JSON: one array
// of event objects, loadable in Perfetto or chrome://tracing. The
// output is byte-identical for identical input.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(toChrome(ev))
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceJSONL writes events in the compact JSONL form: the same
// Chrome trace-event objects, one per line, streamable and replayable
// by ckpt-report timeline.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(toChrome(ev)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteChromeTrace or
// WriteTraceJSONL, sniffing the format from the first byte.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	br := bufio.NewReader(r)
	var first byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, nil
			}
			return nil, err
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		first = b
		goto sniffed
	}
sniffed:
	if err := br.UnreadByte(); err != nil {
		return nil, err
	}
	switch first {
	case '[':
		var ces []chromeEvent
		dec := json.NewDecoder(br)
		// Numbers land in the any-typed Args as json.Number, not float64,
		// so integer attributes re-import exactly (fromChrome splits the
		// kinds back apart).
		dec.UseNumber()
		if err := dec.Decode(&ces); err != nil {
			return nil, fmt.Errorf("obs: chrome trace: %w", err)
		}
		out := make([]TraceEvent, 0, len(ces))
		for i, ce := range ces {
			ev, err := fromChrome(ce)
			if err != nil {
				return nil, fmt.Errorf("obs: chrome trace event %d: %w", i, err)
			}
			out = append(out, ev)
		}
		return out, nil
	case '{':
		dec := json.NewDecoder(br)
		dec.UseNumber()
		var out []TraceEvent
		for i := 0; ; i++ {
			var ce chromeEvent
			if err := dec.Decode(&ce); err != nil {
				if errors.Is(err, io.EOF) {
					return out, nil
				}
				return nil, fmt.Errorf("obs: trace jsonl line %d: %w", i+1, err)
			}
			ev, err := fromChrome(ce)
			if err != nil {
				return nil, fmt.Errorf("obs: trace jsonl line %d: %w", i+1, err)
			}
			out = append(out, ev)
		}
	}
	return nil, fmt.Errorf("obs: unrecognized trace format (starts with %q)", first)
}

// WriteFile exports the full-fidelity sink in canonical order to path:
// JSONL when the extension is .jsonl, Chrome trace JSON otherwise.
// Writing is atomic (temp file + rename). A nil tracer or empty path
// no-ops, so CLIs can call it unconditionally.
func (t *Tracer) WriteFile(path string) error {
	if t == nil || path == "" {
		return nil
	}
	events := t.Events()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".trace-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if strings.HasSuffix(path, ".jsonl") {
		err = WriteTraceJSONL(tmp, events)
	} else {
		err = WriteChromeTrace(tmp, events)
	}
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// SnapshotHandler serves the flight recorder as Chrome trace-event
// JSON — mount it at /debug/trace/snapshot. Safe on a nil tracer
// (serves an empty trace).
func (t *Tracer) SnapshotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteChromeTrace(w, t.Snapshot())
	})
}
