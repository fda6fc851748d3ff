package imagestore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Delta describes a patch from a committed base image to a new image:
// which generation it applies to, the new image geometry, the dirty
// chunk indices, and the content address of each dirty chunk. It is
// the manifest half of a delta transfer; the dirty chunks' bytes
// travel separately as the payload.
type Delta struct {
	// BaseGen is the committed generation this patch applies to.
	BaseGen int `json:"base_gen"`
	// ChunkSize is the chunk geometry; it must match the base's.
	ChunkSize int `json:"chunk_size"`
	// Size is the new image length in bytes.
	Size int64 `json:"size"`
	// Dirty lists the patched chunk indices, ascending.
	Dirty []int `json:"dirty"`
	// Sums[i] is the content address of chunk Dirty[i]'s new bytes; the
	// store verifies each patched chunk against it before committing.
	Sums []ChunkSum `json:"sums"`
}

// PayloadBytes returns the raw (uncompressed) payload length the delta
// announces: the summed spans of its dirty chunks.
func (d Delta) PayloadBytes() int64 {
	var total int64
	for _, i := range d.Dirty {
		lo, hi := chunkSpan(i, d.ChunkSize, d.Size)
		total += hi - lo
	}
	return total
}

// Store-side commit errors. All of them leave the last good image
// untouched; the checkpoint manager maps each to a Nack so the client
// can retry (typically by falling back to a full transfer).
var (
	// ErrNoBase reports a delta for a job with no committed image.
	ErrNoBase = errors.New("imagestore: no committed base image")
	// ErrBaseMismatch reports a delta built against a superseded
	// generation (e.g. an earlier commit the client never learned about).
	ErrBaseMismatch = errors.New("imagestore: base generation mismatch")
	// ErrBadDelta reports a structurally invalid or corrupt patch:
	// wrong geometry, out-of-range or unordered dirty indices, payload
	// length mismatch, or a patched chunk whose bytes fail address
	// verification.
	ErrBadDelta = errors.New("imagestore: invalid delta")
)

// stored is one job's committed image, held as its chunks. A chunk is
// never written after its commit, so a later generation shares every
// chunk it does not patch, and readers holding a chunk list or a
// Lookup slice are safe across later commits.
type stored struct {
	gen    int
	chunks [][]byte // chunk i holds the bytes man.Sums[i] addresses
	// flat is the image as one slice the chunks are consecutive windows
	// of, or nil while the chunks lie in several buffers (a delta
	// commit's payload beside its base's). loose counts the payload
	// bytes installed since the image was last flat: a bound on what
	// superseded generations' buffers may keep alive for a few
	// surviving chunks.
	flat  []byte
	loose int64
	man   Manifest
	crc   uint32 // IEEE CRC32 of the image
}

// flatten copies chunks, an image of size bytes, into one new buffer
// and points each chunk at its window there, releasing the buffers
// the chunks held before.
func flatten(chunks [][]byte, size int64) []byte {
	flat := make([]byte, 0, size)
	for i, c := range chunks {
		lo := len(flat)
		flat = append(flat, c...)
		chunks[i] = flat[lo:len(flat):len(flat)]
	}
	return flat
}

// Store holds the last committed checkpoint image of every job, with
// atomic generation-checked delta application. The zero value is not
// usable; call NewStore.
type Store struct {
	mu     sync.Mutex
	images map[string]stored
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{images: make(map[string]stored)}
}

// Lookup returns the committed image of a job as one slice, with its
// manifest, generation and whole-image CRC. The slice must not be
// modified. When a delta commit left the chunks in several buffers, the
// first Lookup of that generation joins them, and the chunks are then
// windows of the joined slice.
func (s *Store) Lookup(job string) (data []byte, man Manifest, gen int, crc uint32, ok bool) {
	s.mu.Lock()
	st, ok := s.images[job]
	s.mu.Unlock()
	if ok && st.flat == nil {
		// Join outside the lock, into a fresh chunk list: the committed
		// one may be in a reader's hands.
		st.chunks = slices.Clone(st.chunks)
		st.flat, st.loose = flatten(st.chunks, st.man.Size), 0
		s.mu.Lock()
		if cur := s.images[job]; cur.gen == st.gen && cur.flat == nil {
			s.images[job] = st
		}
		s.mu.Unlock()
	}
	return st.flat, st.man, st.gen, st.crc, ok
}

// Chunks returns the committed image of a job as its chunk list, with
// its manifest, generation and whole-image CRC, without joining it.
// Neither the list nor a chunk may be modified; both stay valid, and
// unchanged, across later commits.
func (s *Store) Chunks(job string) (chunks [][]byte, man Manifest, gen int, crc uint32, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.images[job]
	return st.chunks, st.man, st.gen, st.crc, ok
}

// Generation returns the committed generation of a job (0 = none).
func (s *Store) Generation(job string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.images[job].gen
}

// CommitFull replaces a job's image wholesale. The store copies data,
// so the caller may reuse its buffer. Returns the new generation and
// the committed manifest and CRC; the CRC is combined from the chunk
// CRCs the manifest holds, so the image is read once.
func (s *Store) CommitFull(job string, data []byte, chunkSize int) (gen int, man Manifest, crc uint32) {
	own := make([]byte, len(data))
	copy(own, data)
	man = BuildManifest(own, chunkSize)
	crc = man.imageCRC()
	chunks := make([][]byte, len(man.Sums))
	for i := range chunks {
		lo, hi := chunkSpan(i, man.ChunkSize, man.Size)
		chunks[i] = own[lo:hi:hi]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.images[job]
	st.gen++
	st.chunks, st.flat, st.loose, st.man, st.crc = chunks, own, 0, man, crc
	s.images[job] = st
	Metrics.FullCommits.Inc()
	return st.gen, man, crc
}

// ApplyDelta patches a job's committed image with a delta and its raw
// (already decompressed) payload. The commit is atomic: every check —
// base generation, chunk geometry, dirty-set shape, payload length,
// per-chunk content-address verification — passes before the new image
// replaces the old one, and any failure returns a named error with the
// last good image intact. The work is O(dirty chunks): the new image
// shares the base's retained chunks, its dirty chunks are windows of
// payload, and its CRC is combined from the manifest's chunk CRCs. A
// committed delta therefore keeps payload, which the caller hands over
// and must not modify afterwards.
func (s *Store) ApplyDelta(job string, d Delta, payload []byte) (gen int, crc uint32, err error) {
	s.mu.Lock()
	base, ok := s.images[job]
	s.mu.Unlock()
	if !ok || base.gen == 0 {
		return 0, 0, ErrNoBase
	}
	if d.BaseGen != base.gen {
		return 0, 0, fmt.Errorf("%w: delta against gen %d, committed gen %d", ErrBaseMismatch, d.BaseGen, base.gen)
	}
	if d.ChunkSize != base.man.ChunkSize {
		return 0, 0, fmt.Errorf("%w: chunk size %d vs committed %d", ErrBadDelta, d.ChunkSize, base.man.ChunkSize)
	}
	if d.Size < 0 || len(d.Dirty) != len(d.Sums) {
		return 0, 0, fmt.Errorf("%w: %d dirty indices, %d sums", ErrBadDelta, len(d.Dirty), len(d.Sums))
	}
	// Bytes past the end of the base lie in chunks the base does not
	// cover, which must be dirty, so they all travel in the payload:
	// an announced size beyond that is refused before it is allocated.
	if d.Size > base.man.Size+int64(len(payload)) {
		return 0, 0, fmt.Errorf("%w: size %d from a %d-byte base and %d payload bytes", ErrBadDelta, d.Size, base.man.Size, len(payload))
	}
	// The dirty set is checked whole before its spans are summed: an
	// out-of-range index has a negative span that could otherwise
	// cancel a real one and slip a short payload past the length check.
	n := NumChunks(d.Size, d.ChunkSize)
	prev := -1
	for _, i := range d.Dirty {
		if i <= prev || i >= n {
			return 0, 0, fmt.Errorf("%w: dirty index %d out of order or range (chunks %d)", ErrBadDelta, i, n)
		}
		prev = i
	}
	if got := d.PayloadBytes(); got != int64(len(payload)) {
		return 0, 0, fmt.Errorf("%w: payload %d bytes, dirty spans announce %d", ErrBadDelta, len(payload), got)
	}

	// Build the new image and its manifest: start from the base's,
	// resize, patch. A dirty chunk's sum is verified against its bytes
	// below; a retained chunk keeps bytes and sum alike.
	chunks := make([][]byte, n)
	copy(chunks, base.chunks)
	man := Manifest{ChunkSize: d.ChunkSize, Size: d.Size, Sums: make([]ChunkSum, n)}
	copy(man.Sums, base.man.Sums)
	off := int64(0)
	for k, i := range d.Dirty {
		lo, hi := chunkSpan(i, d.ChunkSize, d.Size)
		chunk := payload[off : off+hi-lo : off+hi-lo]
		off += hi - lo
		if sumChunk(chunk) != d.Sums[k] {
			Metrics.RejectedDeltas.Inc()
			return 0, 0, fmt.Errorf("%w: chunk %d failed content-address verification", ErrBadDelta, i)
		}
		chunks[i] = chunk
		man.Sums[i] = d.Sums[k]
	}
	// Every retained chunk must mean the same bytes it meant in the
	// base: fully covered there, with an identical span (the base's
	// final short chunk cannot be silently reinterpreted by a resize).
	for i, k := 0, 0; i < n; i++ {
		if k < len(d.Dirty) && d.Dirty[k] == i { // Dirty ascends: a cursor finds it
			k++
			continue
		}
		lo, hi := chunkSpan(i, d.ChunkSize, d.Size)
		blo, bhi := chunkSpan(i, d.ChunkSize, base.man.Size)
		if lo != blo || hi != bhi || hi > base.man.Size {
			Metrics.RejectedDeltas.Inc()
			return 0, 0, fmt.Errorf("%w: chunk %d not dirty but not covered by base", ErrBadDelta, i)
		}
	}

	crc = man.imageCRC()
	// A delta patching every chunk leaves the payload as the image.
	// Otherwise the superseded buffers live on in the chunks that
	// survive, so once the payloads since the image was last flat
	// outweigh it, it is copied flat again: memory stays within twice
	// the image at one copy per image-size of payload.
	var flat []byte
	loose := base.loose + int64(len(payload))
	switch {
	case len(d.Dirty) == n:
		flat, loose = payload, 0
	case loose > d.Size:
		flat, loose = flatten(chunks, d.Size), 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.images[job]
	if cur.gen != base.gen {
		// A concurrent commit slid in while we verified; the delta's
		// base is stale after all.
		return 0, 0, fmt.Errorf("%w: base superseded during apply", ErrBaseMismatch)
	}
	cur.gen++
	cur.chunks, cur.flat, cur.loose, cur.man, cur.crc = chunks, flat, loose, man, crc
	s.images[job] = cur
	Metrics.DeltaCommits.Inc()
	return cur.gen, crc, nil
}
