package experiments

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

func TestSelectStages(t *testing.T) {
	if got, err := SelectStages("all"); err != nil || !slices.Equal(got, Stages) {
		t.Errorf(`SelectStages("all") = %v, %v; want every stage`, got, err)
	}
	if got, err := SelectStages("Table1"); err != nil || !slices.Equal(got, []string{"table1"}) {
		t.Errorf(`SelectStages("Table1") = %v, %v; want [table1]`, got, err)
	}
	_, err := SelectStages("tabel1")
	if err == nil {
		t.Fatal(`SelectStages("tabel1") accepted an unknown name`)
	}
	for _, name := range append([]string{"all"}, Stages...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestPlanDerivedSizes: Table 5 runs half of Table 4's samples and the
// censoring study half the pool, never fewer than one. A size that
// halves to zero must not fall through to the studies' own defaults
// (85 samples, 40 machines).
func TestPlanDerivedSizes(t *testing.T) {
	all := ciAll(t)
	for _, row := range all.Table5.Rows {
		if row.Samples != 1 {
			t.Errorf("CI-scale Table 5 %v row has %d samples, want 2/2 = 1", row.Model, row.Samples)
		}
	}
	if got := all.Censoring.Config.Machines; got != 10 {
		t.Errorf("CI-scale censoring study ran %d machines, want 20/2 = 10", got)
	}

	p := ciPlan()
	p.Samples, p.Stages = 1, []string{"table5"}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Table5.Rows {
		if row.Samples != 1 {
			t.Errorf("-samples 1: Table 5 %v row has %d samples, want 1", row.Model, row.Samples)
		}
	}

	p = ciPlan()
	p.Machines, p.Stages = 1, []string{"censoring"}
	if r, err = p.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Censoring.Config.Machines; got != 1 {
		t.Errorf("-machines 1: censoring study ran %d machines, want 1", got)
	}
}

func TestPlanRejectsNonPositiveSizes(t *testing.T) {
	for _, mutate := range []func(*Plan){
		func(p *Plan) { p.Machines = 0 },
		func(p *Plan) { p.Months = 0 },
		func(p *Plan) { p.Samples = 0 },
		func(p *Plan) { p.Concurrency = 0 },
	} {
		p := ciPlan()
		mutate(&p)
		if _, err := p.Run(); err == nil {
			t.Errorf("plan %+v ran", p)
		}
	}
}

// TestPlanTraceIndependentOfGOMAXPROCS pins DESIGN §12's contract for
// the evaluation's timeline: a CI-scale plan's trace, schedule builds
// included, is the same bytes at GOMAXPROCS 1 and 4. The sweep and the
// censoring study build schedules concurrently, so this holds only
// while each build's lane is named by its caller.
func TestPlanTraceIndependentOfGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the CI-scale plan twice")
	}
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p := ciPlan()
		p.Tracer = obs.NewTracer(obs.TracerOptions{FullFidelity: true})
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := obs.WriteTraceJSONL(&b, p.Tracer.Events()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := render(1)
	if !bytes.Equal(serial, render(4)) {
		t.Error("the plan's trace depends on GOMAXPROCS")
	}
	events, err := obs.ReadTrace(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	for _, ev := range events {
		if ev.Name == "markov.build_schedule" {
			builds++
		}
	}
	if builds == 0 {
		t.Error("the plan's trace holds no schedule builds")
	}
}
