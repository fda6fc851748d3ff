package fit

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// ErrKeyReuse reports a violation of the Cache keying contract: the
// same (key, model) pair arrived with observably different data. The
// cache detects this with a cheap content fingerprint recorded by the
// entry's first caller, so a workload that recycles machine names
// across different histories fails loudly instead of silently serving
// the first fit forever. Errors wrap ErrKeyReuse; test with errors.Is.
var ErrKeyReuse = errors.New("fit: cache key reused with different data")

// Cache memoizes Fit results so each (key, model) pair is estimated at
// most once, no matter how many concurrent callers ask for it. The EM
// hyperexponential fit is by far the costliest estimator in the
// pipeline, and the evaluation sweeps ask for the same fit once per
// checkpoint-duration grid point; the cache collapses that |CTimes|×
// duplication to a single fit.
//
// Keying contract: entries are keyed by (key, model), NOT by the data
// contents. The caller must guarantee that a key (typically the
// machine name) always accompanies the same training sample within one
// cache's lifetime. The contract is enforced: every call fingerprints
// its data (FNV-1a over the sample bits) and a key that reappears with
// a different fingerprint gets ErrKeyReuse. In a bounded cache an
// evicted entry takes its fingerprint with it, so reuse of an evicted
// key refits silently; the guarantee is per-residency, not
// per-lifetime.
//
// Concurrency: safe for concurrent use. The key space is partitioned
// over power-of-two shards by a hash of (key, model), so callers for
// different entries contend only when they hash to the same shard: the
// single global mutex this design replaced serialized every lookup —
// including pure hits — through one lock whose contended (futex) path
// costs microseconds per handoff once more than one core hammers it.
// BenchmarkFitCacheContention measures the hit path at 16 goroutines
// against the retired design, kept as a reference implementation.
// Lookups remain single-flight per entry — the first caller for an entry runs
// the fit while later callers for the same entry block on it rather
// than refitting, so a cache shared by a worker pool does each fit
// exactly once. Fit errors are memoized like results.
type Cache struct {
	shards      []cacheShard
	mask        uint64
	maxPerShard int
}

// cacheShard is one lock domain, padded out to a 64-byte cache line so
// neighbouring shards never false-share under write-heavy contention.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	// order tracks insertion order for bounded caches; eviction removes
	// the oldest finished entry. nil when the cache is unbounded.
	order []cacheKey
	// pad the 40 bytes above (8 mutex + 8 map + 24 slice header) out to
	// a 64-byte line.
	_ [24]byte
}

type cacheKey struct {
	key   string
	model Model
}

type cacheEntry struct {
	once sync.Once
	// done flips to true after once completes; it classifies later
	// callers as cache hits (entry finished) versus single-flight
	// waits (entry still in flight) without holding the shard lock.
	done atomic.Bool
	// fp is the data fingerprint recorded by the caller that created
	// the entry; data0/dataLen identify that caller's backing array so
	// repeat calls with the very same slice skip rehashing. All three
	// are written before the entry is published in the shard map and
	// immutable after, so readers that found the entry under the shard
	// lock may read them lock-free.
	fp      uint64
	data0   *float64
	dataLen int
	d       dist.Distribution
	err     error
}

// CacheOptions tunes NewCacheOpts. The zero value selects the same
// defaults as NewCache.
type CacheOptions struct {
	// Shards is the number of lock domains, rounded up to a power of
	// two. 0 picks a default sized to the host (8×GOMAXPROCS, clamped
	// to [8, 512]). More shards reduce contention at a fixed ~64-byte
	// cost per shard; shard count never affects results.
	Shards int
	// MaxEntries bounds the resident entry count (approximately: the
	// bound is enforced per shard as MaxEntries/Shards, minimum one).
	// When a shard exceeds its allotment the oldest finished entry is
	// evicted (counted in fit_cache_evictions_total); in-flight entries
	// are never evicted, so a momentary overshoot is possible while
	// every resident entry is still fitting. 0 means unbounded — the
	// right choice for sweeps, whose key space is the machine list.
	// A fleet-scale server facing an open-ended key space sets this.
	MaxEntries int
}

// NewCache returns an empty unbounded fit cache with default sharding.
func NewCache() *Cache {
	return NewCacheOpts(CacheOptions{})
}

// NewCacheOpts returns an empty fit cache tuned by opts.
func NewCacheOpts(opts CacheOptions) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = 8 * runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
		if n > 512 {
			n = 512
		}
	}
	// Round up to a power of two so shard selection is a mask.
	size := 1
	for size < n {
		size <<= 1
	}
	c := &Cache{
		shards: make([]cacheShard, size),
		mask:   uint64(size - 1),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cacheEntry)
	}
	if opts.MaxEntries > 0 {
		c.maxPerShard = opts.MaxEntries / size
		if c.maxPerShard < 1 {
			c.maxPerShard = 1
		}
	}
	return c
}

// FNV-1a, the usual offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// shardFor hashes (key, model) down to a shard index.
func (c *Cache) shardFor(key string, model Model) *cacheShard {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	h = (h ^ uint64(model)) * fnvPrime
	return &c.shards[h&c.mask]
}

// fingerprint hashes the sample contents (length plus the exact bits
// of every observation) so key reuse with different data is
// detectable. FNV-1a generalized to 64-bit words — one xor and one
// multiply per observation — because the byte-at-a-time original costs
// 8× for no extra discrimination here: the input is already a stream
// of full words.
func fingerprint(data []float64) uint64 {
	h := (fnvOffset ^ uint64(len(data))) * fnvPrime
	for _, x := range data {
		h = (h ^ math.Float64bits(x)) * fnvPrime
	}
	return h
}

// sameSlice reports whether data is the exact slice (backing array and
// length) the entry was created with — the common steady state, where
// a sweep or server passes one resident history per key — letting the
// hit path skip rehashing. A caller that mutates that array in place
// defeats the reuse check; passing fresh contents in any other slice
// is always fingerprinted.
func (e *cacheEntry) sameSlice(data []float64) bool {
	return len(data) == e.dataLen && (len(data) == 0 || &data[0] == e.data0)
}

// Fit returns the memoized fit of the model family to data under key,
// estimating it on first use. A nil *Cache is valid and simply fits
// every time (no memoization), which keeps call sites unconditional.
func (c *Cache) Fit(key string, model Model, data []float64) (dist.Distribution, error) {
	if c == nil {
		return Fit(model, data)
	}
	k := cacheKey{key: key, model: model}
	sh := c.shardFor(key, model)
	sh.mu.Lock()
	e, ok := sh.entries[k]
	if !ok {
		e = &cacheEntry{fp: fingerprint(data), dataLen: len(data)}
		if len(data) > 0 {
			e.data0 = &data[0]
		}
		sh.entries[k] = e
		if c.maxPerShard > 0 {
			sh.order = append(sh.order, k)
			c.evictLocked(sh)
		}
	}
	sh.mu.Unlock()
	switch {
	case !ok:
		metrics.cacheMisses.Inc()
	case e.done.Load():
		metrics.cacheHits.Inc()
	default:
		// The entry exists but its fit has not finished: this caller is
		// about to block inside once.Do behind the in-flight fit. (The
		// fit may finish between the Load and the Do — the wait is then
		// momentary, but it still raced an in-flight estimate.)
		metrics.cacheWaits.Inc()
	}
	if ok && !e.sameSlice(data) && e.fp != fingerprint(data) {
		return nil, fmt.Errorf("%w: (%q, %v)", ErrKeyReuse, key, model)
	}
	e.once.Do(func() {
		e.d, e.err = Fit(model, data)
		e.done.Store(true)
	})
	return e.d, e.err
}

// evictLocked trims sh back to the per-shard allotment by evicting the
// oldest finished entries. In-flight entries are skipped — a waiter is
// blocked on them — which can leave the shard momentarily over its
// bound; the next insert retries. Caller holds sh.mu.
func (c *Cache) evictLocked(sh *cacheShard) {
	for len(sh.entries) > c.maxPerShard {
		evicted := false
		for i, k := range sh.order {
			if e := sh.entries[k]; e != nil && e.done.Load() {
				delete(sh.entries, k)
				sh.order = append(sh.order[:i], sh.order[i+1:]...)
				metrics.cacheEvictions.Inc()
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything resident is still fitting
		}
	}
}

// Len reports the number of distinct (key, model) entries resident
// (fitted or in flight). It sums the shards one lock at a time — there
// is no global lock to take — so under concurrent inserts the total is
// a consistent-enough snapshot, exact once writers quiesce.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
