package fit

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

var cacheTestData = []float64{120, 340, 900, 1500, 2200, 4100, 8000, 9500}

// TestCacheKeyReuse pins the keying-contract enforcement: the same
// (key, model) with different data returns ErrKeyReuse instead of
// silently serving the first fit, while byte-identical data (even in a
// freshly allocated slice) stays a plain hit.
func TestCacheKeyReuse(t *testing.T) {
	c := NewCache()
	d1, err := c.Fit("m", ModelExponential, cacheTestData)
	if err != nil {
		t.Fatal(err)
	}
	// Same contents, different backing array: still the same entry.
	clone := append([]float64(nil), cacheTestData...)
	d2, err := c.Fit("m", ModelExponential, clone)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("identical data should hit the memoized fit")
	}
	// Different contents under the same key: the contract violation.
	other := append([]float64(nil), cacheTestData...)
	other[0] = 121
	if _, err := c.Fit("m", ModelExponential, other); !errors.Is(err, ErrKeyReuse) {
		t.Fatalf("reused key with different data: err = %v, want ErrKeyReuse", err)
	}
	// The violation does not poison the entry.
	if _, err := c.Fit("m", ModelExponential, cacheTestData); err != nil {
		t.Fatalf("original data after a reuse error: %v", err)
	}
	// Same data under a different model or key is fine.
	if _, err := c.Fit("m", ModelWeibull, other); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fit("m2", ModelExponential, other); err != nil {
		t.Fatal(err)
	}
}

// TestCacheShardInvariance pins that shard count is invisible: every
// shard count returns the same distributions as a direct Fit.
func TestCacheShardInvariance(t *testing.T) {
	want, err := Fit(ModelWeibull, cacheTestData)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 7, 64} {
		c := NewCacheOpts(CacheOptions{Shards: shards})
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("machine%04d", i)
			got, err := c.Fit(key, ModelWeibull, cacheTestData)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("shards=%d key=%s: %v, want %v", shards, key, got, want)
			}
		}
		if c.Len() != 20 {
			t.Errorf("shards=%d: Len = %d, want 20", shards, c.Len())
		}
	}
}

// TestCacheBounded pins size-gated eviction: a bounded cache holds at
// most MaxEntries finished entries, counts what it drops, and refits
// an evicted key on return (as a fresh miss, not a reuse error — the
// fingerprint leaves with the entry).
func TestCacheBounded(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	// One shard so the bound and the eviction order are exact.
	c := NewCacheOpts(CacheOptions{Shards: 1, MaxEntries: 3})
	for i := 0; i < 5; i++ {
		if _, err := c.Fit(fmt.Sprintf("m%d", i), ModelExponential, cacheTestData); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 (bounded)", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fit_cache_evictions_total"]; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	// m0 and m1 were evicted oldest-first; returning m0 with *different*
	// data refits without ErrKeyReuse and is classified a miss.
	other := append([]float64(nil), cacheTestData...)
	other[0] = 121
	if _, err := c.Fit("m0", ModelExponential, other); err != nil {
		t.Fatalf("evicted key with new data: %v", err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["fit_cache_misses_total"]; got != 6 {
		t.Errorf("misses = %d, want 6 (5 inserts + 1 re-insert)", got)
	}
	// The still-resident newest key is a hit, not a refit.
	if _, err := c.Fit("m4", ModelExponential, cacheTestData); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["fit_cache_hits_total"]; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
}

// TestCacheClassificationContention drives 64 goroutines over a shared
// key set through both the sharded cache and the single-mutex
// reference, and pins that the hit/miss/wait classification partitions
// identically: misses equal the distinct-entry count in both, every
// call is classified exactly once, and the hit+wait remainder matches.
// (The hit/wait split itself is timing-dependent by design — a wait is
// a hit that arrived while the fit was still in flight.)
func TestCacheClassificationContention(t *testing.T) {
	const (
		goroutines = 64
		keys       = 16
		rounds     = 8
	)
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	c := NewCache()
	ref := newMutexCache()
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					// Offset per goroutine so lock acquisition interleaves.
					k := fmt.Sprintf("m%02d", (i+g)%keys)
					if _, err := c.Fit(k, ModelExponential, cacheTestData); err != nil {
						t.Error(err)
					}
					if _, err := ref.Fit(k, ModelExponential, cacheTestData); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	start.Done()
	wg.Wait()

	const calls = goroutines * keys * rounds
	snap := reg.Snapshot()
	hits := snap.Counters["fit_cache_hits_total"]
	misses := snap.Counters["fit_cache_misses_total"]
	waits := snap.Counters["fit_cache_waits_total"]
	if misses != keys {
		t.Errorf("sharded misses = %d, want %d (one per distinct entry)", misses, keys)
	}
	if hits+misses+waits != calls {
		t.Errorf("sharded classified %d of %d calls", hits+misses+waits, calls)
	}
	if rm := ref.misses.Load(); rm != misses {
		t.Errorf("reference misses = %d, sharded = %d", rm, misses)
	}
	if refRest, rest := ref.hits.Load()+ref.waits.Load(), hits+waits; refRest != rest {
		t.Errorf("reference hits+waits = %d, sharded = %d", refRest, rest)
	}
	if c.Len() != ref.Len() {
		t.Errorf("Len: sharded %d, reference %d", c.Len(), ref.Len())
	}
}

// TestCacheSingleFlightSharded pins that sharding kept single-flight:
// concurrent callers for one cold entry run exactly one fit.
func TestCacheSingleFlightSharded(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	c := NewCache()
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Fit("hot", ModelHyperexp2, cacheTestData); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if fits := snap.Counters["fit_em_fits_total"]; fits != 1 {
		t.Errorf("EM ran %d times for one entry, want 1", fits)
	}
	if misses := snap.Counters["fit_cache_misses_total"]; misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

// TestCacheNilStillFits pins the nil-cache passthrough.
func TestCacheNilStillFits(t *testing.T) {
	var c *Cache
	if _, err := c.Fit("x", ModelExponential, cacheTestData); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("nil cache Len != 0")
	}
}
