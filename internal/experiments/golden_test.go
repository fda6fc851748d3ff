package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// ciPlan is what `ckpt-experiments -machines 20 -months 6 -samples 2
// -seed 7` runs: the paper's evaluation at CI scale.
func ciPlan() Plan {
	p := DefaultPlan()
	p.Machines, p.Months, p.Samples, p.Seed = 20, 6, 2, 7
	return p
}

var (
	ciOnce   sync.Once
	ciReport *Report
	ciErr    error
)

// ciAll runs ciPlan with every stage once per test binary.
func ciAll(t *testing.T) *Report {
	t.Helper()
	ciOnce.Do(func() { ciReport, ciErr = ciPlan().Run() })
	if ciErr != nil {
		t.Fatal(ciErr)
	}
	return ciReport
}

// TestGoldenTables pins the rendered paper artifacts byte for byte at
// CI scale: each golden file holds the sections of its stages, as
// ckpt-experiments prints them.
//
// The files under testdata/ are the fixed point a refactor of sim,
// parallel, live or predict must hold. A missing file is recorded from
// the current tree and the test fails once, so a deliberate change is
// re-recorded by deleting the file and reviewing the diff.
func TestGoldenTables(t *testing.T) {
	r := ciAll(t)
	for _, g := range []struct {
		file   string
		stages []string
	}{
		{"sweep.golden", []string{"figure3", "table1", "figure4", "table3"}},
		{"table2.golden", []string{"table2"}},
		{"live.golden", []string{"table4", "validate", "table5"}},
		{"chaos_migrate.golden", []string{"chaos"}},
		{"predict.golden", []string{"predict"}},
		{"delta.golden", []string{"delta"}},
		{"sensitivity.golden", []string{"sensitivity"}},
		{"censoring.golden", []string{"censoring"}},
	} {
		var b strings.Builder
		for _, s := range g.stages {
			out, err := r.section(s)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(out)
		}
		got := b.String()
		path := filepath.Join("testdata", g.file)
		want, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s was missing; recorded it from this tree — review and rerun", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, x string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				x = wl[i]
			}
			if g != x {
				t.Errorf("%s differs from the recorded output at line %d:\n got: %s\nwant: %s", path, i+1, g, x)
				break
			}
		}
	}
}

// TestPlanStageRunsAlone pins "prerequisites written once": a plan
// selecting one stage renders, apart from its "#" progress lines, the
// same bytes as that stage's section of the all-stage run.
func TestPlanStageRunsAlone(t *testing.T) {
	all := ciAll(t)
	for _, name := range Stages {
		t.Run(name, func(t *testing.T) {
			want, err := all.section(name)
			if err != nil {
				t.Fatal(err)
			}
			p := ciPlan()
			if p.Stages, err = SelectStages(name); err != nil {
				t.Fatal(err)
			}
			r, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := r.Render(&b); err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, line := range strings.SplitAfter(b.String(), "\n") {
				if !strings.HasPrefix(line, "#") {
					kept = append(kept, line)
				}
			}
			if got := strings.TrimLeft(strings.Join(kept, ""), "\n"); got != want {
				t.Errorf("-run %s renders\n%s\nbut its section of -run all is\n%s", name, got, want)
			}
		})
	}
}
