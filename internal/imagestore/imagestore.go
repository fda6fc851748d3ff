// Package imagestore implements a content-addressed checkpoint image
// store: checkpoint images are split into fixed-size chunks, each
// chunk is addressed by a (rolling-hash, CRC32) pair, and a new image
// is transferred as a delta against the previously committed one — only
// the chunks whose address changed cross the wire, so a repeated 500 MB
// image costs only its dirty fraction in bandwidth. An optional
// DEFLATE pass squeezes the delta payload further when it helps.
//
// The package has a client half and a server half. The client half
// (Image) owns a mutable image buffer, marks the chunks written since
// the last commit, tracks the manifest of the last image the server
// committed, and encodes deltas against it from the marked chunks
// alone. The server half (Store) keeps one committed image per job as
// a list of immutable chunks shared between generations and applies
// deltas atomically: a patch that references a stale base generation,
// carries a malformed geometry, or fails per-chunk verification leaves
// the last good image untouched — the same commit-or-Nack contract the
// checkpoint manager enforces for full transfers (DESIGN.md §16).
package imagestore

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// DefaultChunkSize is the dedup granularity (64 KiB): small enough
// that a scattered write pattern still dedups well, large enough that
// a 500 MB image's manifest (8000 chunk sums) fits a control frame.
const DefaultChunkSize = 64 << 10

// rollBase is the multiplier of the polynomial rolling hash. The hash
// is Rabin–Karp style — h = h·b + byte over the chunk — so it could
// slide a fixed window in O(1); with fixed-size chunking we evaluate
// it blockwise and use it as the fast half of the chunk address, with
// CRC32 as the confirming half (a 96-bit combined address makes
// accidental cross-chunk collisions negligible at any realistic image
// count).
const rollBase = 1099511628211 // FNV-64 prime; full-period odd multiplier

// ChunkSum is the content address of one chunk.
type ChunkSum struct {
	// Roll is the polynomial rolling hash of the chunk bytes.
	Roll uint64 `json:"r"`
	// CRC is the IEEE CRC32 of the chunk bytes.
	CRC uint32 `json:"c"`
}

// Powers of rollBase in the hash's ring, the integers mod 2⁶⁴.
const (
	rollBase2 = rollBase * rollBase & (1<<64 - 1)
	rollBase3 = rollBase2 * rollBase & (1<<64 - 1)
	rollBase4 = rollBase3 * rollBase & (1<<64 - 1)
	rollBase5 = rollBase4 * rollBase & (1<<64 - 1)
	rollBase6 = rollBase5 * rollBase & (1<<64 - 1)
	rollBase7 = rollBase6 * rollBase & (1<<64 - 1)
	rollBase8 = rollBase7 * rollBase & (1<<64 - 1)
)

// sumChunk computes a chunk's content address. The hash takes eight
// bytes per step, h·b⁸ + c₀·b⁷ + … + c₇: eight steps of h = h·b + c
// multiplied out, so the value is the byte loop's, bit for bit, while
// the eight products no longer wait on one another. Every call counts
// in Metrics.ChunksHashed.
func sumChunk(b []byte) ChunkSum {
	Metrics.ChunksHashed.Inc()
	crc := crc32.ChecksumIEEE(b)
	var h uint64
	for ; len(b) >= 8; b = b[8:] {
		h = h*rollBase8 + uint64(b[0])*rollBase7 + uint64(b[1])*rollBase6 +
			uint64(b[2])*rollBase5 + uint64(b[3])*rollBase4 + uint64(b[4])*rollBase3 +
			uint64(b[5])*rollBase2 + uint64(b[6])*rollBase + uint64(b[7])
	}
	for _, c := range b {
		h = h*rollBase + uint64(c)
	}
	return ChunkSum{Roll: h, CRC: crc}
}

// Manifest is the chunk-address list of a whole image — what the store
// remembers about the committed content and what deltas are diffed
// against.
type Manifest struct {
	// ChunkSize is the chunking granularity in bytes.
	ChunkSize int `json:"chunk_size"`
	// Size is the image length in bytes; the final chunk is short when
	// Size is not a multiple of ChunkSize.
	Size int64 `json:"size"`
	// Sums[i] addresses bytes [i·ChunkSize, min((i+1)·ChunkSize, Size)).
	Sums []ChunkSum `json:"sums"`
}

// NumChunks returns the chunk count for an image of size bytes at the
// given granularity: ceil(size/chunkSize), 0 for an empty image.
func NumChunks(size int64, chunkSize int) int {
	if size <= 0 || chunkSize <= 0 {
		return 0
	}
	return int((size + int64(chunkSize) - 1) / int64(chunkSize))
}

// chunkSpan returns the byte range of chunk i in an image of the given
// size.
func chunkSpan(i, chunkSize int, size int64) (lo, hi int64) {
	lo = int64(i) * int64(chunkSize)
	hi = lo + int64(chunkSize)
	if hi > size {
		hi = size
	}
	return lo, hi
}

// BuildManifest chunks data and computes every chunk's address.
// chunkSize ≤ 0 selects DefaultChunkSize. An empty image yields a
// zero-chunk manifest (Size 0), the degenerate case Diff and Apply
// both accept.
func BuildManifest(data []byte, chunkSize int) Manifest {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	n := NumChunks(int64(len(data)), chunkSize)
	m := Manifest{ChunkSize: chunkSize, Size: int64(len(data)), Sums: make([]ChunkSum, n)}
	for i := 0; i < n; i++ {
		lo, hi := chunkSpan(i, chunkSize, m.Size)
		m.Sums[i] = sumChunk(data[lo:hi])
	}
	return m
}

// crcPoly is the IEEE CRC-32 polynomial in the reflected bit order
// hash/crc32 uses: bit 31 is the coefficient of x⁰.
const crcPoly = 0xedb88320

// crcMulMod returns a·b modulo the IEEE polynomial, both operands and
// the result in CRC-32's reflected bit order.
func crcMulMod(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crcPoly
		} else {
			b >>= 1
		}
	}
	return p
}

// crcShift returns x^(8n) modulo the IEEE polynomial: multiplying a
// CRC by it moves the CRC past n more bytes, the GF(2) shift operator
// of zlib's crc32_combine. It squares x⁸ once per bit of n.
func crcShift(n int64) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<23 // x⁰ and x⁸
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = crcMulMod(sq, p)
		}
		sq = crcMulMod(sq, sq)
	}
	return p
}

// imageCRC returns the IEEE CRC-32 of the whole image m addresses,
// combined from its chunks' CRCs without reading a byte:
// crc(A‖B) = crc(A)·x^(8|B|) + crc(B), zlib's crc32_combine, which is
// bit-identical to crc32.ChecksumIEEE over the concatenation. The shift
// operator is computed once per chunk length — the full chunks share
// one, the short final chunk has its own.
func (m Manifest) imageCRC() uint32 {
	var crc, shift uint32
	shiftLen := int64(-1)
	for i, s := range m.Sums {
		lo, hi := chunkSpan(i, m.ChunkSize, m.Size)
		if hi-lo != shiftLen {
			shiftLen, shift = hi-lo, crcShift(hi-lo)
		}
		crc = crcMulMod(shift, crc) ^ s.CRC
	}
	return crc
}

// Compatible reports whether two manifests share chunk geometry, the
// precondition for diffing one against the other.
func (m Manifest) Compatible(o Manifest) bool {
	return m.ChunkSize == o.ChunkSize
}

// Diff returns the indices of cur's chunks that are not already
// present at the same position in prev — the dirty set a delta
// transfer must carry. The comparison is content-addressed: a chunk
// rewritten with identical bytes dedups away, and an identical image
// diffs to nil (the zero-chunks-on-wire fast path). Chunks beyond
// prev's length, and every chunk when geometries differ, are dirty.
func Diff(prev, cur Manifest) []int {
	if !prev.Compatible(cur) {
		all := make([]int, len(cur.Sums))
		for i := range all {
			all[i] = i
		}
		return all
	}
	var dirty []int
	for i, s := range cur.Sums {
		if i < len(prev.Sums) && prev.Sums[i] == s {
			// Same address at the same offset: dedup against the
			// committed image.
			continue
		}
		dirty = append(dirty, i)
	}
	// The final prev chunk may be short; if cur grew, its sum covers
	// different bytes even when the prefix matches, and the address
	// comparison above already catches that (a short chunk and its
	// extended successor hash differently).
	return dirty
}

// Compress DEFLATEs payload and reports whether that actually won:
// pseudo-random checkpoint content is incompressible and comes back
// (slightly) bigger, in which case the original payload is returned
// and ok is false — callers then ship the raw bytes and announce no
// encoding.
func Compress(payload []byte) (out []byte, ok bool) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return payload, false
	}
	if _, err := w.Write(payload); err != nil || w.Close() != nil {
		return payload, false
	}
	if buf.Len() >= len(payload) {
		return payload, false
	}
	return buf.Bytes(), true
}

// Decompress inflates a Compress-encoded payload back to rawLen bytes.
func Decompress(payload []byte, rawLen int64) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(payload))
	defer r.Close()
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("imagestore: inflate: %w", err)
	}
	// A trailing garbage byte means the announced raw length lied.
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return nil, errors.New("imagestore: inflate: payload longer than announced")
	}
	return out, nil
}
