package markov

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// goldenLaws are the availability laws gamma.golden pins: the paper's
// families at the parameters ROADMAP item 10 measures, plus a Mixture
// whose lognormal component has no dist.Point of its own.
func goldenLaws() []struct {
	name string
	d    dist.Distribution
} {
	return []struct {
		name string
		d    dist.Distribution
	}{
		{"exponential", dist.NewExponential(1.0 / 9000)},
		{"weibull", dist.NewWeibull(0.43, 3409)},
		{"hyperexp2", dist.NewHyperexponential([]float64{0.7, 0.3}, []float64{1.0 / 1000, 1.0 / 20000})},
		{"hyperexp3", dist.NewHyperexponential([]float64{0.5, 0.3, 0.2}, []float64{1.0 / 300, 1.0 / 5000, 1.0 / 60000})},
		{"mixture", dist.NewMixture([]float64{0.6, 0.4}, []dist.Distribution{dist.NewWeibull(0.7, 600), dist.NewLogNormal(9, 1.2)})},
	}
}

// gammaGoldenLines evaluates every quantity gamma.golden records, as
// math.Float64bits in hex: per (law, age, T, C) the Model.Gamma value,
// the evaluator's ratio and ExpectedImagesPerCommit; per (law, age, C)
// Topt's T and ratio and whether it returned an error.
func gammaGoldenLines() []string {
	ages := []float64{0, 1e3, 2e4, 2e5, 6e5, 1e7}
	Ts := []float64{10, 600, 5000}
	Cs := []float64{50, 500}
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var lines []string
	for _, law := range goldenLaws() {
		for _, age := range ages {
			for _, C := range Cs {
				m := Model{Avail: law.d, Costs: Costs{C: C, R: C, L: C}}
				e := m.evaluator(age)
				for _, T := range Ts {
					lines = append(lines, fmt.Sprintf("gamma %s age=%g C=%g T=%g %s %s %s", law.name, age, C, T,
						bits(m.Gamma(T, age)), bits(e.ratio(T)), bits(m.ExpectedImagesPerCommit(T, age))))
				}
				T, ratio, err := m.Topt(age, OptimizeOptions{})
				lines = append(lines, fmt.Sprintf("topt %s age=%g C=%g %s %s err=%v", law.name, age, C, bits(T), bits(ratio), err != nil))
			}
		}
	}
	return lines
}

// TestGoldenGamma pins Γ bit for bit: Model.Gamma, the evaluator's
// ratio, Topt's (T, ratio) and ExpectedImagesPerCommit over five laws,
// ages 0 to 10⁷ s, T ∈ {10, 600, 5000} and C = R = L ∈ {50, 500}.
// The deep-tail rows (S(age) far below 10⁻⁶) are numerically wrong —
// the conditional law is computed by subtracting unconditional partial
// moments — and are pinned only so that a refactor can prove it moved
// nothing, and a fix can show exactly which rows it moved.
//
// A missing testdata/gamma.golden is recorded from the current tree
// and the test fails once, so a deliberate change to Γ is re-recorded
// by deleting the file and reviewing the diff.
func TestGoldenGamma(t *testing.T) {
	current := gammaGoldenLines()
	path := filepath.Join("testdata", "gamma.golden")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(current, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; recorded it from this tree — review and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(golden) != len(current) {
		t.Fatalf("%s has %d lines, the grid has %d", path, len(golden), len(current))
	}
	for i := range current {
		if current[i] != golden[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, current[i], golden[i])
		}
	}
}
