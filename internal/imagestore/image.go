package imagestore

import (
	"math"
	"math/rand"
)

// Image is the client half of the store: a mutable checkpoint image
// buffer plus the manifest of the last generation the server committed,
// which deltas are encoded against. Synthetic workloads drive it with
// MutateFraction (dirty a fraction of the chunks between checkpoints);
// the checkpoint client encodes with EncodeDelta, ships the result, and
// on Ack records the commit with CommitBase. Image is not safe for
// concurrent use; each session owns its own.
type Image struct {
	chunkSize int
	data      []byte
	baseMan   Manifest // manifest of the last committed generation
	baseGen   int      // 0 = nothing committed yet
	encMan    Manifest // manifest of data as EncodeDelta last saw it; ChunkSize 0 = none
	rng       *rand.Rand
}

// NewImage builds an image of the given size filled with deterministic
// pseudo-random (incompressible) content derived from seed. chunkSize
// ≤ 0 selects DefaultChunkSize.
func NewImage(size int64, chunkSize int, seed int64) *Image {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	im := &Image{
		chunkSize: chunkSize,
		data:      make([]byte, size),
		rng:       rand.New(rand.NewSource(seed)),
	}
	im.fill(im.data)
	return im
}

// fill overwrites b with bytes from the image's mutation stream.
func (im *Image) fill(b []byte) {
	// rand.Read on a seeded *rand.Rand is deterministic and never
	// returns an error.
	im.rng.Read(b)
}

// Bytes returns the image content. The slice aliases the image buffer;
// callers must not hold it across a Mutate or Adopt. A write through
// it between EncodeDelta and CommitBase is not part of the committed
// base (the manager never received it); the next delta ships it.
func (im *Image) Bytes() []byte { return im.data }

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
	im.encMan = Manifest{}
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
// instead in that case. The image keeps the manifest it builds here —
// the one whole-image hashing pass of a checkpoint — for CommitBase.
func (im *Image) EncodeDelta() (Delta, []byte) {
	cur := BuildManifest(im.data, im.chunkSize)
	im.encMan = cur
	dirty := Diff(im.baseMan, cur)
	d := Delta{
		BaseGen:   im.baseGen,
		ChunkSize: im.chunkSize,
		Size:      im.Size(),
		Dirty:     dirty,
		Sums:      make([]ChunkSum, len(dirty)),
	}
	for k, i := range dirty {
		d.Sums[k] = cur.Sums[i]
	}
	return d, DeltaPayload(im.data, im.chunkSize, dirty)
}

// CommitBase records that the server committed the current content as
// generation gen; subsequent deltas are diffed against it. The base is
// the content as EncodeDelta last hashed it — what the server holds —
// and is hashed here only when the content was never encoded (a full
// transfer with no delta attempt before it).
func (im *Image) CommitBase(gen int) {
	if im.encMan.ChunkSize == 0 {
		im.encMan = BuildManifest(im.data, im.chunkSize)
	}
	im.baseMan, im.encMan = im.encMan, Manifest{}
	im.baseGen = gen
}

// Adopt replaces the image content wholesale with data fetched from
// the server during recovery, committed there as generation gen. The
// image copies data.
func (im *Image) Adopt(data []byte, gen int) {
	im.data = make([]byte, len(data))
	copy(im.data, data)
	im.baseMan, im.encMan = BuildManifest(im.data, im.chunkSize), Manifest{}
	im.baseGen = gen
}
