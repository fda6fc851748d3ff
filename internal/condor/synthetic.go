package condor

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// SyntheticPoolConfig parameterizes a synthetic desktop pool whose
// availability behavior is calibrated to the paper's published
// measurements of the UW–Madison Condor pool: heavy-tailed idle
// periods (the one machine the paper reports exactly fits
// Weibull(shape 0.43, scale 3409)), heterogeneous across machines,
// with most machines having at least 512 MB of memory.
type SyntheticPoolConfig struct {
	// Machines is the pool size (the paper's pool exceeded 1000).
	Machines int
	// Seed makes generation deterministic.
	Seed int64
	// DiurnalAmplitude, when positive, gives every machine a
	// time-of-day idle-duration modulation (see condor.Machine); zero
	// keeps the stationary pool the calibrated tables use.
	DiurnalAmplitude float64
}

const (
	// medianIdleScale centers the per-machine Weibull scale spread at
	// the paper's 3409 s.
	medianIdleScale = 3409
	// smallMemoryFraction is the fraction of machines with < 512 MB
	// (unusable by the paper's 500 MB-checkpoint test application).
	smallMemoryFraction = 0.15
)

// SyntheticPool generates the machine specifications for a
// heterogeneous desktop pool:
//
//   - ~20% of machines draw idle periods from per-machine Weibulls
//     with shape ~ U[0.33, 0.55] and lognormal scale around
//     medianIdleScale — the decreasing-hazard regime the paper
//     measures (its reported machine fits Weibull(0.43, 3409));
//   - ~50% draw from bimodal mixtures of short interactive-use gaps
//     (exponential, minutes) and long overnight/weekend stretches
//     (Weibull, hours) — the multi-modality that makes real desktop
//     traces fit hyperexponentials better than any single Weibull;
//   - ~30% draw from 2-phase hyperexponentials;
//   - busy (owner-active) periods are exponential with mean 0.5–4 h.
func SyntheticPool(cfg SyntheticPoolConfig) ([]Machine, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("condor: need a positive machine count, got %d", cfg.Machines)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	machines := make([]Machine, 0, cfg.Machines)
	for i := range cfg.Machines {
		var idle dist.Distribution
		switch kind := rng.Float64(); {
		case kind < 0.20:
			shape := 0.33 + 0.22*rng.Float64()
			scale := medianIdleScale * math.Exp(0.7*rng.NormFloat64())
			idle = dist.NewWeibull(shape, scale)
		case kind < 0.70:
			// Bimodal: interactive gaps of a few minutes against
			// overnight stretches of a few hours.
			fastMean := 120 + 480*rng.Float64()
			slowScale := (1.5 + 4.5*rng.Float64()) * 3600
			slowShape := 0.5 + 0.3*rng.Float64()
			pFast := 0.50 + 0.25*rng.Float64()
			idle = dist.NewMixture(
				[]float64{pFast, 1 - pFast},
				[]dist.Distribution{
					dist.NewExponential(1 / fastMean),
					dist.NewWeibull(slowShape, slowScale),
				},
			)
		default:
			fastMean := 120 + 600*rng.Float64()
			slowMean := 3600 + 7*3600*rng.Float64()
			pFast := 0.45 + 0.3*rng.Float64()
			idle = dist.NewHyperexponential(
				[]float64{pFast, 1 - pFast},
				[]float64{1 / fastMean, 1 / slowMean},
			)
		}
		busyMean := 1800 + 12600*rng.Float64()
		mem := 512 << uint(rng.Intn(3)) // 512, 1024, 2048 MB
		if rng.Float64() < smallMemoryFraction {
			mem = 256
		}
		arch := "x86"
		if rng.Float64() < 0.2 {
			arch = "x86_64"
		}
		machines = append(machines, Machine{
			Name:             fmt.Sprintf("desktop%04d", i),
			MemoryMB:         mem,
			Arch:             arch,
			Idle:             idle,
			Busy:             dist.NewExponential(1 / busyMean),
			InitiallyBusy:    rng.Float64() < 0.5,
			DiurnalAmplitude: cfg.DiurnalAmplitude,
		})
	}
	return machines, nil
}

// MonthsSeconds converts months (30-day) to seconds, a convenience
// for campaign durations ("18-month measurement period").
func MonthsSeconds(months float64) float64 {
	return months * 30 * 24 * 3600
}
