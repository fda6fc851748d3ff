package dist_test

import (
	"fmt"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// ExampleConditional shows the future-lifetime distribution at work:
// the heavy-tailed Weibull the paper measured has a decreasing hazard,
// so the longer a machine has been up, the longer it is expected to
// stay up — the mechanism behind aperiodic schedules. E[min(X_t, h)],
// the expected uptime within the next hour, is PM_t(h) + h·S_t(h).
func ExampleConditional() {
	machine := dist.NewWeibull(0.43, 3409)
	const hour = 3600.0
	for _, age := range []float64{0, 3600, 24 * 3600} {
		s, pm := dist.NewConditional(machine, age).At(hour)
		fmt.Printf("after %5.1f h up: P(survive 1 more hour) = %.2f, expected uptime in that hour %4.1f min\n",
			age/3600, s, (pm+hour*s)/60)
	}
	// Output:
	// after   0.0 h up: P(survive 1 more hour) = 0.36, expected uptime in that hour 30.1 min
	// after   1.0 h up: P(survive 1 more hour) = 0.70, expected uptime in that hour 49.9 min
	// after  24.0 h up: P(survive 1 more hour) = 0.93, expected uptime in that hour 57.9 min
}

// ExampleMixture models the bimodality of real desktop idle times:
// short interactive gaps mixed with long overnight stretches.
func ExampleMixture() {
	desktop := dist.NewMixture(
		[]float64{0.6, 0.4},
		[]dist.Distribution{
			dist.NewExponential(1.0 / 300), // 5-minute interactive gaps
			dist.NewWeibull(0.7, 4*3600),   // multi-hour overnight stretches
		},
	)
	fmt.Printf("median %.0f s, mean %.0f s — the tail dominates the mean\n",
		desktop.Quantile(0.5), desktop.Mean())
	// Output:
	// median 450 s, mean 7471 s — the tail dominates the mean
}
