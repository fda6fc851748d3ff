package imagestore

import (
	"fmt"
	"math"
	"math/rand"
)

// Image is the client half of the store: a mutable checkpoint image
// buffer plus the manifest of the last generation the server committed,
// which deltas are encoded against. Every chunk written since the
// commit carries a dirty mark, so encoding a delta reads only the marked
// chunks. Synthetic workloads drive it with MutateFraction (dirty a
// fraction of the chunks between checkpoints), applications with
// WriteAt; the checkpoint client encodes with EncodeDelta, ships the
// result, and on Ack records the commit with CommitBase. Image is not
// safe for concurrent use; each session owns its own.
type Image struct {
	chunkSize int
	data      []byte
	// dirty[i] marks chunk i as possibly unlike baseMan.Sums[i]: written
	// since the commit, or never committed at all.
	dirty   []bool
	baseMan Manifest // manifest of the last committed generation
	baseGen int      // 0 = nothing committed yet
	// pending is what EncodeDelta last shipped and CommitBase has not
	// yet folded into baseMan: the indices it found dirty and their sums
	// (the slices of the Delta it returned). encoded reports an encode
	// since the last commit, even one that found nothing dirty.
	pending Delta
	encoded bool
	rng     *rand.Rand
}

// NewImage builds an image of the given size filled with deterministic
// pseudo-random (incompressible) content derived from seed. chunkSize
// ≤ 0 selects DefaultChunkSize.
func NewImage(size int64, chunkSize int, seed int64) *Image {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	n := NumChunks(size, chunkSize)
	im := &Image{
		chunkSize: chunkSize,
		data:      make([]byte, size),
		dirty:     make([]bool, n),
		baseMan:   Manifest{ChunkSize: chunkSize, Size: size, Sums: make([]ChunkSum, n)},
		rng:       rand.New(rand.NewSource(seed)),
	}
	im.fill(im.data)
	for i := range im.dirty {
		im.dirty[i] = true // nothing is committed yet
	}
	return im
}

// fill overwrites b with bytes from the image's mutation stream.
func (im *Image) fill(b []byte) {
	// rand.Read on a seeded *rand.Rand is deterministic and never
	// returns an error.
	im.rng.Read(b)
}

// Bytes returns the image content as a read-only view: the slice
// aliases the image buffer, so it changes with the next WriteAt,
// MutateFraction or Adopt. Writing through it is outside the contract
// — the write sets no dirty mark, so no delta would ship it; write
// with WriteAt.
func (im *Image) Bytes() []byte { return im.data }

// WriteAt copies p into the image at offset off and marks every chunk
// it touches dirty, in the io.WriterAt shape. The image does not grow:
// a write that would reach past its end writes nothing and returns an
// error.
func (im *Image) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off > im.Size()-int64(len(p)) {
		return 0, fmt.Errorf("imagestore: write of %d bytes at offset %d outside a %d-byte image", len(p), off, im.Size())
	}
	if len(p) == 0 {
		return 0, nil
	}
	copy(im.data[off:], p)
	cs := int64(im.chunkSize)
	for i := off / cs; i <= (off+int64(len(p))-1)/cs; i++ {
		im.dirty[i] = true
	}
	return len(p), nil
}

// Size returns the image length in bytes.
func (im *Image) Size() int64 { return int64(len(im.data)) }

// ChunkSize returns the chunk geometry.
func (im *Image) ChunkSize() int { return im.chunkSize }

// BaseGen returns the last committed generation (0 = none), the value
// a delta transfer announces as its base.
func (im *Image) BaseGen() int { return im.baseGen }

// HasBase reports whether the server has committed a generation of
// this image — the precondition for encoding a delta.
func (im *Image) HasBase() bool { return im.baseGen != 0 }

// MutateFraction dirties ceil(frac · chunks) distinct chunks with
// fresh pseudo-random bytes, emulating an application that touched that
// fraction of its state since the last checkpoint. frac ≤ 0 leaves the
// image untouched (the identical-image fast path); frac ≥ 1 rewrites
// every chunk. The dirty chunks are chosen uniformly without
// replacement from the image's seeded stream, so a given seed yields a
// reproducible mutation history.
func (im *Image) MutateFraction(frac float64) {
	n := NumChunks(im.Size(), im.chunkSize)
	if n == 0 || frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	k := int(math.Ceil(frac * float64(n)))
	if k > n {
		k = n
	}
	for _, i := range im.rng.Perm(n)[:k] {
		lo, hi := chunkSpan(i, im.chunkSize, im.Size())
		im.fill(im.data[lo:hi])
		im.dirty[i] = true
	}
}

// DirtyFraction returns 1−exp(−rate·workSec): the expected dirty
// fraction of an image whose chunks are touched as a Poisson process at
// the given per-chunk rate while the application runs — the same curve
// the variable-cost model C(T) assumes (DESIGN.md §16).
func DirtyFraction(rate, workSec float64) float64 {
	if rate <= 0 || workSec <= 0 {
		return 0
	}
	return -math.Expm1(-rate * workSec)
}

// EncodeDelta diffs the current content against the committed base and
// returns the delta manifest plus its raw payload. It must not be
// called without a base (HasBase); the caller sends a full transfer
// instead in that case. Only the marked chunks are read: each is
// hashed and compared with its base sum, so a chunk rewritten with its
// committed bytes dedups away. The chunks a previous encode shipped
// that no commit has acknowledged are marked again first, so a retry
// carries them too. The image keeps the returned Dirty and Sums, which
// the caller must not modify, for CommitBase; a write after the encode
// leaves its chunk marked for the next delta.
func (im *Image) EncodeDelta() (Delta, []byte) {
	for _, i := range im.pending.Dirty {
		im.dirty[i] = true
	}
	// Size Dirty, Sums and the payload once, for every marked chunk
	// turning out dirty.
	marked, total := 0, int64(0)
	for i, d := range im.dirty {
		if d {
			lo, hi := chunkSpan(i, im.chunkSize, im.Size())
			marked, total = marked+1, total+hi-lo
		}
	}
	d := Delta{
		BaseGen:   im.baseGen,
		ChunkSize: im.chunkSize,
		Size:      im.Size(),
		Dirty:     make([]int, 0, marked),
		Sums:      make([]ChunkSum, 0, marked),
	}
	payload := make([]byte, 0, total)
	for i, dirty := range im.dirty {
		if !dirty {
			continue
		}
		im.dirty[i] = false
		lo, hi := chunkSpan(i, im.chunkSize, im.Size())
		sum := sumChunk(im.data[lo:hi])
		if sum == im.baseMan.Sums[i] {
			continue // the committed bytes, rewritten
		}
		d.Dirty = append(d.Dirty, i)
		d.Sums = append(d.Sums, sum)
		payload = append(payload, im.data[lo:hi]...)
	}
	im.pending, im.encoded = d, true
	return d, payload
}

// CommitBase records that the server committed generation gen;
// subsequent deltas are diffed against it. After an encode the
// committed content is the content as EncodeDelta hashed it — what a
// delta carried — so its sums fold into the base and a chunk written
// since stays marked. With no encode since the last commit a full
// transfer carried the current content, and the marked chunks are
// hashed here: every chunk for an image never committed, only the
// written ones otherwise.
func (im *Image) CommitBase(gen int) {
	if im.encoded {
		for k, i := range im.pending.Dirty {
			im.baseMan.Sums[i] = im.pending.Sums[k]
		}
	} else {
		for i, dirty := range im.dirty {
			if dirty {
				lo, hi := chunkSpan(i, im.chunkSize, im.Size())
				im.baseMan.Sums[i] = sumChunk(im.data[lo:hi])
				im.dirty[i] = false
			}
		}
	}
	im.pending, im.encoded = Delta{}, false
	im.baseGen = gen
}

// Adopt replaces the image content wholesale with data fetched from
// the server during recovery, committed there as generation gen. The
// image copies data into its own buffer, reused when large enough, and
// hashes it whole; no chunk is marked.
func (im *Image) Adopt(data []byte, gen int) {
	im.data = append(im.data[:0], data...)
	im.baseMan = BuildManifest(im.data, im.chunkSize)
	im.dirty = make([]bool, len(im.baseMan.Sums))
	im.pending, im.encoded = Delta{}, false
	im.baseGen = gen
}
