package serve

import (
	"sync"
	"sync/atomic"

	"github.com/cycleharvest/ckptsched/internal/markov"
)

// scheduleStore holds built schedules keyed by the client's key, with
// the same shape as the sharded fit.Cache: power-of-two lock shards so
// the interval route's read path contends only within a shard, entries
// that coalesce concurrent builders (the first POST for a key builds,
// later ones wait on it), memoized build errors, and a size bound with
// oldest-finished eviction so an open-ended fleet key space cannot
// grow the store without limit.
type scheduleStore struct {
	shards      []storeShard
	mask        uint64
	maxPerShard int
	m           *serveMetrics
}

// storeShard is one lock domain. Reads take the read lock only for the
// map probe; everything else about an entry is reachable lock-free.
type storeShard struct {
	mu      sync.RWMutex
	entries map[string]*storeEntry
	order   []string
}

// storeEntry is one key's schedule. ready closes when the build
// finishes (either way); done flips first so the hot path can skip the
// channel receive once the entry is complete.
type storeEntry struct {
	ready chan struct{}
	done  atomic.Bool
	// hint is the last interval index served, fed back to LookupFrom as
	// its position hint. It is advisory and racy by design: a stale
	// hint only costs the quantized-index probe it would have saved.
	hint  atomic.Int32
	sched *markov.Schedule
	err   error
}

// wait blocks until the entry's build has finished.
func (e *storeEntry) wait() {
	if !e.done.Load() {
		<-e.ready
	}
}

func newScheduleStore(shards, maxEntries int, m *serveMetrics) *scheduleStore {
	size := 1
	for size < shards {
		size <<= 1
	}
	st := &scheduleStore{
		shards: make([]storeShard, size),
		mask:   uint64(size - 1),
		m:      m,
	}
	for i := range st.shards {
		st.shards[i].entries = make(map[string]*storeEntry)
	}
	if maxEntries > 0 {
		st.maxPerShard = maxEntries / size
		if st.maxPerShard < 1 {
			st.maxPerShard = 1
		}
	}
	return st
}

func (st *scheduleStore) shard(key string) *storeShard {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return &st.shards[h&st.mask]
}

// FNV-1a, duplicated from internal/fit to keep the packages
// dependency-light (the constants are universal).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// storeGet returns the entry for key, or nil. The caller must wait()
// before touching sched/err. The key may still alias a network buffer
// (the fast path passes bytes): the map probe's string(key) conversion
// is recognized by the compiler and does not allocate.
func storeGet[K string | []byte](st *scheduleStore, key K) *storeEntry {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	sh := &st.shards[h&st.mask]
	sh.mu.RLock()
	e := sh.entries[string(key)]
	sh.mu.RUnlock()
	return e
}

// create returns key's entry and whether this caller created it (and
// therefore owns the build). With replace set, an existing finished
// entry is displaced by a fresh one; an in-flight entry is never
// displaced — the replacer joins it instead, so two concurrent
// replaces cannot build twice.
func (st *scheduleStore) create(key string, replace bool) (e *storeEntry, created bool) {
	sh := st.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		if !replace || !e.done.Load() {
			return e, false
		}
		// Displace: drop the old order slot; the append below re-adds.
		for i, k := range sh.order {
			if k == key {
				sh.order = append(sh.order[:i], sh.order[i+1:]...)
				break
			}
		}
		st.m.resident.Add(-1)
	}
	e = &storeEntry{ready: make(chan struct{})}
	sh.entries[key] = e
	sh.order = append(sh.order, key)
	st.m.resident.Add(1)
	if st.maxPerShard > 0 {
		st.evictLocked(sh)
	}
	return e, true
}

// evictLocked trims sh to its allotment, dropping the oldest finished
// entries; in-flight builds are never evicted. Caller holds sh.mu.
func (st *scheduleStore) evictLocked(sh *storeShard) {
	for len(sh.entries) > st.maxPerShard {
		evicted := false
		for i, k := range sh.order {
			if e := sh.entries[k]; e != nil && e.done.Load() {
				delete(sh.entries, k)
				sh.order = append(sh.order[:i], sh.order[i+1:]...)
				st.m.evictions.Inc()
				st.m.resident.Add(-1)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// complete publishes the build result and releases every waiter.
func (st *scheduleStore) complete(e *storeEntry, sched *markov.Schedule, err error) {
	e.sched, e.err = sched, err
	e.done.Store(true)
	close(e.ready)
	if err == nil {
		st.m.builds.Inc()
	}
}

// len reports resident entries, summing shard sizes one lock at a
// time (no global lock).
func (st *scheduleStore) len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}
