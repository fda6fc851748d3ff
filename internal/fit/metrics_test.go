package fit

import (
	"sync"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// TestCacheMetricsClassification pins the hit/miss/wait partition of
// Cache.Fit calls and the EM fit/iteration counters.
func TestCacheMetricsClassification(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	data := []float64{120, 340, 900, 1500, 2200, 4100, 8000, 9500}
	c := NewCache()
	if _, err := c.Fit("m1", ModelExponential, data); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.Fit("m1", ModelExponential, data); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := c.Fit("m2", ModelHyperexp2, data); err != nil { // miss + EM
		t.Fatal(err)
	}
	// A censored EM fit runs the same body and is counted the same way.
	if _, err := FitCensored(ModelHyperexp2, data, []bool{false, true, false, false, true, false, false, true}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fit_cache_misses_total"]; got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := snap.Counters["fit_cache_hits_total"]; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := snap.Counters["fit_cache_waits_total"]; got != 0 {
		t.Errorf("waits = %d, want 0", got)
	}
	if fits := snap.Counters["fit_em_fits_total"]; fits != 2 {
		t.Errorf("em fits = %d, want 2 (one exact, one censored)", fits)
	}
	if iters := snap.Counters["fit_em_iterations_total"]; iters == 0 {
		t.Error("em iterations not counted")
	}

	// Concurrent callers on one fresh entry: exactly one miss, the rest
	// split hit/wait — but every call is classified exactly once.
	const callers = 8
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Fit("m3", ModelWeibull, data); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap2 := reg.Snapshot()
	classified := (snap2.Counters["fit_cache_misses_total"] - 2) +
		(snap2.Counters["fit_cache_hits_total"] - 1) +
		snap2.Counters["fit_cache_waits_total"]
	if classified != callers {
		t.Errorf("classified %d of %d concurrent calls", classified, callers)
	}
	if snap2.Counters["fit_cache_misses_total"] != 3 {
		t.Errorf("misses = %d, want 3 (one per distinct entry)", snap2.Counters["fit_cache_misses_total"])
	}
}
