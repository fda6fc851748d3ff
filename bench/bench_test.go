package main

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// These tests run every workload at smoke size (`cd bench && go test
// ./...`; the benchmark is a module of its own, so the repository's
// `go test ./...` does not reach them), to keep the harness compiling
// and correct against the internal packages as they change. They check names, units and
// outputs, never speeds. None runs in parallel with another: the
// service wiring sets the process-wide fit/markov instrumentation.

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smokeOptions(t *testing.T) options {
	t.Helper()
	return options{seed: 7, seconds: 1, outDir: t.TempDir(), spec: specPath}
}

func smokeWorkload(name string) *workload {
	w := *findWorkload(name)
	w.shrink()
	return &w
}

// checkMetrics asserts that got holds exactly the metrics want names,
// with the units BENCHMARK.json gives them.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q does not match %v", what, m.Name, nameRE)
		}
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, m := range want {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("%s: metric %s emitted but not in BENCHMARK.json", what, name)
			}
		}
	}
}

func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(names, endToEndOrder) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nharness        %v", names, endToEndOrder)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t)
	var first *figures
	for _, ws := range spec.Workloads {
		w := smokeWorkload(ws.Name)
		fig, err := runPass(w, newScale(w, o.seconds), o.seed, nil)
		if err != nil {
			t.Fatalf("%s: %v", ws.Name, err)
		}
		rep := fig.report()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d operations failed: %v", ws.Name, rep.Correct, rep.Failed, rep.Attempted, fig.campaign.problems)
		}
		checkMetrics(t, ws.Name, rep.Metrics, spec.EndToEnd)
		for name, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %g, want > 0", ws.Name, name, m.Value)
			}
		}
		if first == nil {
			first = fig
		}
	}

	// The same seed again: the count metrics repeat exactly.
	w := smokeWorkload(spec.Workloads[0].Name)
	again, err := runPass(w, newScale(w, o.seconds), o.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"wire_bytes_per_image_byte", first.transfer.wirePerImageByte, again.transfer.wirePerImageByte},
		{"campaign_efficiency", first.campaign.efficiency, again.campaign.efficiency},
		{"campaign_wire_mb_per_h", first.campaign.wireMBph, again.campaign.wireMBph},
		{"parallel.commits", float64(first.fleet.commits), float64(again.fleet.commits)},
	} {
		if c.a != c.b {
			t.Errorf("%s: %v then %v with the same seed", c.name, c.a, c.b)
		}
	}
}

func TestTracedSmoke(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t)
	name := spec.Workloads[len(spec.Workloads)-1].Name
	var out bytes.Buffer
	rep, err := runTraced(&out, o, smokeWorkload(name))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("%s traced: %d of %d operations failed\n%s", name, rep.Failed, rep.Attempted, out.String())
	}
	checkMetrics(t, name+" traced", rep.Metrics, spec.PerLayer)
	for _, p := range allPhases {
		if !strings.Contains(out.String(), "budget "+p+":") {
			t.Errorf("no budget table for %s", p)
		}
	}
}

func TestInputsComeFromSeed(t *testing.T) {
	w := smokeWorkload(workloads[0].name)
	sc := newScale(w, 1)
	build := func(seed int64) *serveEnv {
		env, err := newServeEnv(w, sc, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		env.close()
		return env
	}
	a, b, c := build(3), build(3), build(4)
	if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.installs, b.installs) {
		t.Error("the same seed gave different lookup or install streams")
	}
	if reflect.DeepEqual(a.pool.reqs, c.pool.reqs) || reflect.DeepEqual(a.installs, c.installs) {
		t.Error("different seeds gave the same lookup or install streams")
	}
}

func TestCompareRuns(t *testing.T) {
	metrics := []metricSpec{
		{Name: "lookup_rps", Unit: "req/s", Better: "higher", Bound: 0.10},
		{Name: "ckpt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "campaign_efficiency", Unit: "ratio", Better: "higher", Bound: 0.005},
	}
	run := func(rps, ckpt, eff float64) *report {
		return &report{Correct: true, Attempted: 1, Metrics: map[string]metric{
			"lookup_rps": {rps, "req/s"}, "ckpt_p50_ms": {ckpt, "ms"}, "campaign_efficiency": {eff, "ratio"},
		}}
	}
	for _, c := range []struct {
		what   string
		second *report
		agree  bool
	}{
		{"within the bounds", run(1.05e6, 95, 0.7), true},
		{"rate 20 % lower", run(0.8e6, 100, 0.7), false},
		{"rate 20 % higher: as unsteady as lower", run(1.2e6, 100, 0.7), false},
		{"checkpoint 20 % slower", run(1e6, 120, 0.7), false},
		{"a count off by a thousandth", run(1e6, 100, 0.7007), false},
	} {
		var out bytes.Buffer
		if got := compareRuns(&out, metrics, []*report{run(1e6, 100, 0.7), c.second}); got != c.agree {
			t.Errorf("%s: compareRuns = %v, want %v\n%s", c.what, got, c.agree, out.String())
		}
	}
}
