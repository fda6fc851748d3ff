package parallel

import (
	"math/rand"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// benchConfig is the root BenchmarkParallelRun parameterization at the
// given herd size, reused here so the in-package numbers line up with
// the gated cross-package ones.
func benchConfig(workers int) Config {
	avail := dist.NewWeibull(0.43, 3409)
	return Config{
		Workers:      workers,
		Avail:        avail,
		ScheduleDist: avail,
		LinkMBps:     2 * float64(workers),
		CheckpointMB: 500,
		Duration:     24 * 3600,
		Seed:         11,
	}
}

// BenchmarkHeapUpdate measures the sub-heap's decrease/increase-key
// churn at the per-shard size the engine actually uses (defaultShardSize
// workers per heap), the operation every failure reschedule pays.
func BenchmarkHeapUpdate(b *testing.B) {
	const n = defaultShardSize
	rng := rand.New(rand.NewSource(7))
	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = rng.Float64() * 1e6
	}
	h := newEventHeap(n)
	for i := range n {
		h.Update(i, keys[i%len(keys)], kindFail)
	}
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		h.Update(i%n, keys[i%len(keys)], kindFail)
		i++
	}
}

// BenchmarkWheelCycle measures one insert/min/remove round trip through
// the timing wheel at engine-like density — the cost every work
// interval pays twice (filed at completion of the previous transfer,
// unfiled when the interval ends).
func BenchmarkWheelCycle(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	w := newWorkWheel(n, 1000)
	now := make([]float64, n)
	for i := range n {
		now[i] = rng.Float64() * 900
		w.insert(i, now[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		gid, k, _ := w.minOf(now[i%n])
		w.remove(int(gid))
		w.insert(int(gid), k) // same bucket: steady-state occupancy
		i++
	}
}

// BenchmarkWheelCohort measures the synchronized-cohort pattern the
// shared link's processor sharing produces — a whole wave entering the
// wheel with one identical key in ascending gid order, then draining
// one at a time. The sorted-bucket tail append keeps this linear; an
// unsorted bucket degrades to O(cohort²) per wave.
func BenchmarkWheelCohort(b *testing.B) {
	const cohort = 4096
	w := newWorkWheel(cohort, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		for i := range cohort {
			w.insert(i, 500)
		}
		for range cohort {
			gid, _, _ := w.minOf(400)
			w.remove(int(gid))
		}
	}
}

// BenchmarkEngineSteadyState measures the full event loop on a mid-size
// herd — the per-event cost of the tournament, wheel, ring and rate
// bookkeeping together, without the schedule-build cost: an untimed
// run fills the memo cache before the loop, so every iteration of
// every -count repetition hits it.
func BenchmarkEngineSteadyState(b *testing.B) {
	cfg := benchConfig(1024)
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	var eff float64
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eff = res.Efficiency
	}
	b.ReportMetric(eff, "efficiency")
}
