package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/predict"
)

// TestGoldenTables pins the rendered paper artifacts byte for byte at
// CI scale — what `ckpt-experiments -machines 20 -months 6 -samples 2
// -seed 7` prints for Figures 3/4, Tables 1–5, the §5.3 validation,
// the prediction sweep and the chaos experiment under -policy migrate
// (same calls, same seed offsets as cmd/ckpt-experiments). The delta
// study is left out: its wire totals are allowed to move.
//
// The files under testdata/ are the fixed point a refactor of sim,
// parallel, live or predict must hold. A missing file is recorded from
// the current tree and the test fails once, so a deliberate change is
// re-recorded by deleting the file and reviewing the diff.
func TestGoldenTables(t *testing.T) {
	const seed = 7
	w, err := NewWorkload(WorkloadConfig{Machines: 20, Months: 6, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	liveTable := func(name string, link ckptnet.Link, samples int, seed int64, validate bool) string {
		tab, camp, err := RunLiveTable(name, LiveCampaignConfig{
			Workload: w, Link: link, SamplesPerModel: samples, Concurrency: 1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := RenderLiveTable(tab) + "\n"
		if validate {
			v, err := RunValidation(w, camp)
			if err != nil {
				t.Fatal(err)
			}
			out += RenderValidation(v) + "\n"
		}
		return out
	}

	artifacts := []struct {
		file   string
		render func() string
	}{
		{"sweep.golden", func() string {
			s, err := RunSweep(w, PaperCTimes, PaperCheckpointMB)
			if err != nil {
				t.Fatal(err)
			}
			t1, err := s.Table1()
			if err != nil {
				t.Fatal(err)
			}
			t3, err := s.Table3()
			if err != nil {
				t.Fatal(err)
			}
			return RenderFigure("Figure 3: mean machine utilization vs checkpoint duration", s.CTimes, s.Figure3(), 3) + "\n" +
				RenderTable(t1, 3) + "\n" +
				RenderFigure("Figure 4: mean network load (MB, 500 MB checkpoints) vs checkpoint duration", s.CTimes, s.Figure4(), 0) + "\n" +
				RenderTable(t3, 0) + "\n"
		}},
		{"table2.golden", func() string {
			res, err := RunTable2(Table2Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return RenderTable2(res) + "\n"
		}},
		{"live.golden", func() string {
			return liveTable("Table 4: checkpoint manager on the campus network", ckptnet.CampusLink(), 2, seed+4, true) +
				liveTable("Table 5: checkpoint manager across the wide area", ckptnet.WideAreaLink(), 1, seed+5, false)
		}},
		{"chaos_migrate.golden", func() string {
			res, err := RunChaos(ChaosConfig{
				Workload: w,
				Link:     ckptnet.CampusLink(),
				Faults:   ckptnet.LinkFaultConfig{TearProb: 0.10, StallProb: 0.05, StallSec: 30, OutageProb: 0.10},
				Seed:     seed + 6,
				Predict:  predict.Config{Precision: 0.85, Recall: 0.8, LeadSec: 240},
				Policy:   predict.PolicyMigrate,
			})
			if err != nil {
				t.Fatal(err)
			}
			return RenderChaos(res) + "\n"
		}},
		{"predict.golden", func() string {
			res, err := RunPrediction(PredictionConfig{Seed: seed + 7})
			if err != nil {
				t.Fatal(err)
			}
			out, err := RenderPrediction(res)
			if err != nil {
				t.Fatal(err)
			}
			return out + "\n"
		}},
	}
	for _, a := range artifacts {
		got := a.render()
		path := filepath.Join("testdata", a.file)
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
