package markov

import (
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// BenchmarkGammaProbe times the objective every interval search
// minimizes: gammaEvaluator.ratio at a fixed age, which Topt, toptWarm
// and BuildSchedule all probe and Model.Gamma does not go through.
// One op is four probes, at T a decade apart, so the
// figure is not one argument's branch of a special function.
func BenchmarkGammaProbe(b *testing.B) {
	for _, d := range []dist.Distribution{
		dist.NewExponential(1.0 / 9000),
		dist.NewWeibull(0.43, 3409),
		dist.NewHyperexponential([]float64{0.6, 0.4}, []float64{0.01, 0.0001}),
		dist.NewHyperexponential([]float64{0.5, 0.3, 0.2}, []float64{0.01, 0.001, 0.0001}),
	} {
		m := Model{Avail: d, Costs: Costs{C: 110, R: 110, L: 110}}
		b.Run(d.Name(), func(b *testing.B) {
			e := m.evaluator(700)
			var sum float64
			for b.Loop() {
				for _, T := range [...]float64{100, 1000, 10000, 100000} {
					sum += e.ratio(T)
				}
			}
			if sum <= 0 {
				b.Fatal("degenerate objective")
			}
		})
	}
}
