package imagestore

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

func TestBuildManifestEmptyImage(t *testing.T) {
	m := BuildManifest(nil, 1024)
	if m.Size != 0 || len(m.Sums) != 0 {
		t.Fatalf("empty image: got size=%d chunks=%d, want 0/0", m.Size, len(m.Sums))
	}
	if dirty := Diff(m, m); len(dirty) != 0 {
		t.Fatalf("empty vs empty diff: got %v, want none", dirty)
	}
}

func TestBuildManifestSubChunkImage(t *testing.T) {
	data := []byte("smaller than one chunk")
	m := BuildManifest(data, 1024)
	if len(m.Sums) != 1 {
		t.Fatalf("sub-chunk image: got %d chunks, want 1", len(m.Sums))
	}
	if m.Sums[0] != sumChunk(data) {
		t.Fatalf("sub-chunk sum mismatch")
	}
}

func TestBuildManifestDefaultChunkSize(t *testing.T) {
	m := BuildManifest(make([]byte, 100), 0)
	if m.ChunkSize != DefaultChunkSize {
		t.Fatalf("chunkSize<=0: got %d, want DefaultChunkSize", m.ChunkSize)
	}
}

func TestDiffIdenticalImageFastPath(t *testing.T) {
	im := NewImage(10*1024, 1024, 1)
	cur := BuildManifest(im.Bytes(), 1024)
	if dirty := Diff(cur, cur); len(dirty) != 0 {
		t.Fatalf("identical image: got %d dirty chunks, want 0 on wire", len(dirty))
	}
}

func TestDiffDirtyRegionStraddlingChunkBoundary(t *testing.T) {
	const cs = 1024
	im := NewImage(8*cs, cs, 2)
	prev := BuildManifest(im.Bytes(), cs)
	// Dirty a region straddling the chunk 2/3 boundary: both chunks —
	// and only those — must turn dirty.
	if _, err := im.WriteAt(bytes.Repeat([]byte{0xAB}, 32), 3*cs-16); err != nil {
		t.Fatal(err)
	}
	cur := BuildManifest(im.Bytes(), cs)
	dirty := Diff(prev, cur)
	if len(dirty) != 2 || dirty[0] != 2 || dirty[1] != 3 {
		t.Fatalf("straddling write: dirty=%v, want [2 3]", dirty)
	}
}

func TestDiffRewrittenIdenticalChunkDedups(t *testing.T) {
	const cs = 512
	im := NewImage(4*cs, cs, 3)
	prev := BuildManifest(im.Bytes(), cs)
	// Rewrite chunk 1 with its own bytes: content-addressing must see
	// no change.
	chunk := append([]byte(nil), im.Bytes()[cs:2*cs]...)
	if _, err := im.WriteAt(chunk, cs); err != nil {
		t.Fatal(err)
	}
	cur := BuildManifest(im.Bytes(), cs)
	if dirty := Diff(prev, cur); len(dirty) != 0 {
		t.Fatalf("identical rewrite: dirty=%v, want none", dirty)
	}
}

func TestDiffIncompatibleGeometryAllDirty(t *testing.T) {
	data := make([]byte, 4096)
	prev := BuildManifest(data, 512)
	cur := BuildManifest(data, 1024)
	dirty := Diff(prev, cur)
	if len(dirty) != len(cur.Sums) {
		t.Fatalf("geometry change: %d dirty of %d, want all", len(dirty), len(cur.Sums))
	}
}

func TestDiffGrownImage(t *testing.T) {
	const cs = 256
	im := NewImage(3*cs+100, cs, 4)
	prev := BuildManifest(im.Bytes(), cs)
	// Grow past the old short final chunk: the extended final chunk and
	// the brand-new one must both be dirty.
	grown := append(append([]byte(nil), im.Bytes()...), bytes.Repeat([]byte{7}, cs)...)
	cur := BuildManifest(grown, cs)
	dirty := Diff(prev, cur)
	if len(dirty) != 2 || dirty[0] != 3 || dirty[1] != 4 {
		t.Fatalf("grown image: dirty=%v, want [3 4]", dirty)
	}
}

func TestCompressRoundTripAndIncompressibleFallback(t *testing.T) {
	// Compressible payload round-trips smaller.
	comp := bytes.Repeat([]byte("checkpoint"), 1000)
	out, ok := Compress(comp)
	if !ok || len(out) >= len(comp) {
		t.Fatalf("compressible payload: ok=%v len=%d (raw %d)", ok, len(out), len(comp))
	}
	back, err := Decompress(out, int64(len(comp)))
	if err != nil || !bytes.Equal(back, comp) {
		t.Fatalf("round trip failed: %v", err)
	}
	// Pseudo-random payload comes back unchanged with ok=false.
	rnd := NewImage(16*1024, 1024, 5).Bytes()
	out, ok = Compress(rnd)
	if ok || !bytes.Equal(out, rnd) {
		t.Fatalf("incompressible payload: ok=%v, want raw passthrough", ok)
	}
}

func TestDecompressRejectsLengthLies(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 4096)
	out, ok := Compress(payload)
	if !ok {
		t.Fatal("expected compressible payload")
	}
	if _, err := Decompress(out, int64(len(payload))-1); err == nil {
		t.Fatal("short announced length: want error, got nil")
	}
	if _, err := Decompress(out, int64(len(payload))+1); err == nil {
		t.Fatal("long announced length: want error, got nil")
	}
}

func TestStoreFullThenDeltaCommit(t *testing.T) {
	const cs = 1024
	s := NewStore()
	im := NewImage(8*cs, cs, 10)

	gen, _, crc := s.CommitFull("job", im.Bytes(), cs)
	if gen != 1 {
		t.Fatalf("first commit: gen=%d, want 1", gen)
	}
	if crc != crc32.ChecksumIEEE(im.Bytes()) {
		t.Fatal("full commit CRC mismatch")
	}
	im.CommitBase(gen)

	im.MutateFraction(0.25)
	d, payload := im.EncodeDelta()
	if len(d.Dirty) == 0 || len(d.Dirty) == 8 {
		t.Fatalf("expected partial dirty set, got %v", d.Dirty)
	}
	gen2, crc2, err := s.ApplyDelta("job", d, payload)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if gen2 != 2 {
		t.Fatalf("delta commit: gen=%d, want 2", gen2)
	}
	if want := crc32.ChecksumIEEE(im.Bytes()); crc2 != want {
		t.Fatalf("delta commit CRC %08x, want %08x", crc2, want)
	}
	data, _, _, _, ok := s.Lookup("job")
	if !ok || !bytes.Equal(data, im.Bytes()) {
		t.Fatal("committed image differs from client image")
	}
}

func TestStoreIdenticalImageZeroChunkDelta(t *testing.T) {
	const cs = 512
	s := NewStore()
	im := NewImage(4*cs, cs, 11)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)

	d, payload := im.EncodeDelta()
	if len(d.Dirty) != 0 || len(payload) != 0 {
		t.Fatalf("identical image: %d dirty chunks, %d payload bytes, want 0/0", len(d.Dirty), len(payload))
	}
	gen2, _, err := s.ApplyDelta("job", d, payload)
	if err != nil || gen2 != 2 {
		t.Fatalf("zero-chunk delta: gen=%d err=%v", gen2, err)
	}
}

func TestStoreDeltaErrors(t *testing.T) {
	const cs = 512
	s := NewStore()
	im := NewImage(4*cs, cs, 12)

	// No base committed yet.
	if _, _, err := s.ApplyDelta("job", Delta{BaseGen: 1, ChunkSize: cs, Size: im.Size()}, nil); !errors.Is(err, ErrNoBase) {
		t.Fatalf("no base: err=%v, want ErrNoBase", err)
	}

	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)
	im.MutateFraction(0.5)
	d, payload := im.EncodeDelta()

	// Stale base generation.
	stale := d
	stale.BaseGen = gen + 7
	if _, _, err := s.ApplyDelta("job", stale, payload); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("stale base: err=%v, want ErrBaseMismatch", err)
	}

	// Wrong chunk geometry.
	bad := d
	bad.ChunkSize = cs * 2
	if _, _, err := s.ApplyDelta("job", bad, payload); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("bad geometry: err=%v, want ErrBadDelta", err)
	}

	// Truncated payload.
	if len(payload) > 0 {
		if _, _, err := s.ApplyDelta("job", d, payload[:len(payload)-1]); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("short payload: err=%v, want ErrBadDelta", err)
		}
	}

	// Corrupt chunk bytes fail content-address verification, and the
	// failed apply leaves the committed image untouched.
	if len(payload) > 0 {
		corrupt := append([]byte(nil), payload...)
		corrupt[0] ^= 0xFF
		if _, _, err := s.ApplyDelta("job", d, corrupt); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("corrupt payload: err=%v, want ErrBadDelta", err)
		}
	}
	if g := s.Generation("job"); g != gen {
		t.Fatalf("failed applies advanced generation to %d, want %d", g, gen)
	}

	// The clean delta still applies after all the failures.
	if _, _, err := s.ApplyDelta("job", d, payload); err != nil {
		t.Fatalf("clean delta after failures: %v", err)
	}
}

func TestStoreDeltaResize(t *testing.T) {
	const cs = 256
	s := NewStore()
	im := NewImage(4*cs, cs, 13)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)

	// Shrink to a non-chunk-aligned size: the client re-encodes; the
	// store must reject any non-dirty chunk whose span changed.
	shrunk := append([]byte(nil), im.Bytes()[:3*cs+100]...)
	im.Adopt(shrunk, 0) // replace content; generation 0 forgets the base
	cur := BuildManifest(shrunk, cs)
	// Build the delta by hand against gen 1: chunk 3's span changed
	// (was full, now short), so it must be dirty.
	d := Delta{BaseGen: gen, ChunkSize: cs, Size: int64(len(shrunk)),
		Dirty: []int{3}, Sums: []ChunkSum{cur.Sums[3]}}
	payload := shrunk[3*cs:]
	gen2, crc, err := s.ApplyDelta("job", d, payload)
	if err != nil {
		t.Fatalf("shrinking delta: %v", err)
	}
	if gen2 != 2 || crc != crc32.ChecksumIEEE(shrunk) {
		t.Fatalf("shrinking delta committed wrong image")
	}

	// A resize that pretends the reinterpreted final chunk is clean
	// must be rejected.
	d2 := Delta{BaseGen: gen2, ChunkSize: cs, Size: int64(len(shrunk)) - 50}
	if _, _, err := s.ApplyDelta("job", d2, nil); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("uncovered resize: err=%v, want ErrBadDelta", err)
	}
}

func TestImageAdoptAndRecoveryRoundTrip(t *testing.T) {
	const cs = 1024
	s := NewStore()
	im := NewImage(4*cs, cs, 14)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)
	im.MutateFraction(0.3)
	d, payload := im.EncodeDelta()
	gen, _, err := s.ApplyDelta("job", d, payload)
	if err != nil {
		t.Fatal(err)
	}
	im.CommitBase(gen)
	want := append([]byte(nil), im.Bytes()...)

	// A fresh client (restart after failure) adopts the committed image
	// and can immediately delta against it.
	data, _, sgen, _, ok := s.Lookup("job")
	if !ok {
		t.Fatal("lookup failed")
	}
	im2 := NewImage(0, cs, 15)
	im2.Adopt(data, sgen)
	if !bytes.Equal(im2.Bytes(), want) {
		t.Fatal("adopted image differs from committed")
	}
	d2, p2 := im2.EncodeDelta()
	if len(d2.Dirty) != 0 {
		t.Fatalf("adopted image should diff clean, got %d dirty", len(d2.Dirty))
	}
	if _, _, err := s.ApplyDelta("job", d2, p2); err != nil {
		t.Fatalf("delta from adopted image: %v", err)
	}
}

func TestMutateFractionDeterministic(t *testing.T) {
	a := NewImage(64*1024, 1024, 42)
	b := NewImage(64*1024, 1024, 42)
	a.MutateFraction(0.2)
	b.MutateFraction(0.2)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed, same mutations: images differ")
	}
	a.MutateFraction(0)
	snap := append([]byte(nil), a.Bytes()...)
	a.MutateFraction(-1)
	if !bytes.Equal(a.Bytes(), snap) {
		t.Fatal("frac<=0 must not mutate")
	}
}

func TestDirtyFractionCurve(t *testing.T) {
	if f := DirtyFraction(0, 100); f != 0 {
		t.Fatalf("zero rate: %v", f)
	}
	if f := DirtyFraction(0.01, 0); f != 0 {
		t.Fatalf("zero work: %v", f)
	}
	f1, f2 := DirtyFraction(0.01, 10), DirtyFraction(0.01, 100)
	if !(f1 > 0 && f1 < f2 && f2 < 1) {
		t.Fatalf("curve not monotone in (0,1): f(10)=%v f(100)=%v", f1, f2)
	}
	if f := DirtyFraction(10, 1e6); f > 1 {
		t.Fatalf("fraction above 1: %v", f)
	}
}

// sumChunkRef is the hash as first written and as the wire fixes it:
// one byte per step. sumChunk must return its value on every input.
func sumChunkRef(b []byte) ChunkSum {
	var h uint64
	for _, c := range b {
		h = h*rollBase + uint64(c)
	}
	return ChunkSum{Roll: h, CRC: crc32.ChecksumIEEE(b)}
}

func TestSumChunkMatchesByteLoop(t *testing.T) {
	buf := NewImage(65536, 0, 21).Bytes()
	lengths := []int{4095, 4096, 4097, 65536}
	for n := 0; n <= 65; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		// Slide the start so the eight-byte steps meet every alignment.
		for off := 0; off < 8 && off+n <= len(buf); off++ {
			if got, want := sumChunk(buf[off:off+n]), sumChunkRef(buf[off:off+n]); got != want {
				t.Fatalf("length %d at offset %d: sumChunk = %+v, byte loop = %+v", n, off, got, want)
			}
		}
	}
}

// sameManifest reports whether two manifests address the same image.
func sameManifest(a, b Manifest) bool {
	return a.ChunkSize == b.ChunkSize && a.Size == b.Size && slices.Equal(a.Sums, b.Sums)
}

// TestManifestsNeverDrift drives a client image and a store through
// random checkpoint histories — clean deltas, Nack'd deltas resent
// full, encodes abandoned mid-transfer, recoveries, lost bases, grown
// and shrunk images, writes that do and do not change bytes — and
// after every step holds the manifests and CRCs that are no longer
// computed from the bytes against ones that are: the store's whole,
// the client's on every chunk it does not hold as marked or pending.
func TestManifestsNeverDrift(t *testing.T) {
	const cs = 64
	const job = "job"
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		im := NewImage(int64(3*cs+rng.Intn(4*cs)), cs, seed)
		full := func() {
			gen, _, _ := s.CommitFull(job, im.Bytes(), cs)
			im.CommitBase(gen)
		}
		full()
		for step := 0; step < 200; step++ {
			op := rng.Intn(9)
			switch {
			case op == 0:
				im.MutateFraction([]float64{0, 0.1, 0.5, 1}[rng.Intn(4)])
			case op == 1 && im.HasBase(): // clean delta
				d, payload := im.EncodeDelta()
				gen, _, err := s.ApplyDelta(job, d, payload)
				if err != nil {
					t.Fatalf("seed %d step %d: honest delta refused: %v", seed, step, err)
				}
				im.CommitBase(gen)
				if data, _, _, _, _ := s.Lookup(job); !bytes.Equal(data, im.Bytes()) {
					t.Fatalf("seed %d step %d: store and client differ after a clean delta", seed, step)
				}
			case op == 2 && im.HasBase(): // delta torn in flight, Nack, full resend
				d, payload := im.EncodeDelta()
				if len(payload) == 0 {
					continue
				}
				payload[rng.Intn(len(payload))] ^= 0x55
				if _, _, err := s.ApplyDelta(job, d, payload); !errors.Is(err, ErrBadDelta) {
					t.Fatalf("seed %d step %d: torn delta: err=%v, want ErrBadDelta", seed, step, err)
				}
				full()
			case op == 3 && im.HasBase(): // encoded, then the connection died
				im.EncodeDelta()
			case op == 4: // recovery: adopt what the store holds
				data, _, gen, _, _ := s.Lookup(job)
				im.Adopt(data, gen)
			case op == 5: // base lost: generation 0, so the next checkpoint goes full
				im.Adopt(im.Bytes(), 0)
			case op == 6: // the image grows or shrinks under the store's feet
				resized := append([]byte(nil), im.Bytes()[:rng.Intn(len(im.Bytes())+1)]...)
				resized = append(resized, NewImage(int64(rng.Intn(3*cs)), cs, rng.Int63()).Bytes()...)
				_, man, gen, _, _ := s.Chunks(job)
				cur := BuildManifest(resized, cs)
				d := Delta{BaseGen: gen, ChunkSize: cs, Size: cur.Size, Dirty: Diff(man, cur)}
				var payload []byte
				for _, i := range d.Dirty {
					d.Sums = append(d.Sums, cur.Sums[i])
					lo, hi := chunkSpan(i, cs, cur.Size)
					payload = append(payload, resized[lo:hi]...)
				}
				gen, _, err := s.ApplyDelta(job, d, payload)
				if err != nil {
					t.Fatalf("seed %d step %d: resize %d→%d refused: %v", seed, step, man.Size, cur.Size, err)
				}
				im.Adopt(resized, gen)
			case op == 8 && im.Size() > 0: // a write, half the time of the bytes already there
				off := rng.Int63n(im.Size())
				p := append([]byte(nil), im.Bytes()[off:off+rng.Int63n(im.Size()-off)+1]...)
				if rng.Intn(2) == 0 {
					rng.Read(p)
				}
				if n, err := im.WriteAt(p, off); n != len(p) || err != nil {
					t.Fatalf("seed %d step %d: WriteAt(%d bytes, %d) = %d, %v", seed, step, len(p), off, n, err)
				}
			default: // op 7, or no base to delta against: a full image
				full()
			}

			chunks, man, gen, crc, _ := s.Chunks(job)
			data, lman, lgen, lcrc, _ := s.Lookup(job)
			if !bytes.Equal(bytes.Join(chunks, nil), data) || !sameManifest(man, lman) || gen != lgen || crc != lcrc {
				t.Fatalf("seed %d step %d (op %d): Chunks and Lookup disagree", seed, step, op)
			}
			if !sameManifest(man, BuildManifest(data, cs)) || crc != crc32.ChecksumIEEE(data) {
				t.Fatalf("seed %d step %d (op %d): store manifest drifted from its %d bytes", seed, step, op, len(data))
			}
			// On every chunk the client neither marked nor shipped
			// uncommitted, its base describes its bytes, and whenever its
			// generation is the store's, the store's bytes too.
			cur := BuildManifest(im.Bytes(), cs)
			if im.baseMan.ChunkSize != cs || im.baseMan.Size != cur.Size || len(im.dirty) != len(cur.Sums) {
				t.Fatalf("seed %d step %d (op %d): client base geometry %d/%d for a %d-byte image", seed, step, op, im.baseMan.ChunkSize, im.baseMan.Size, cur.Size)
			}
			for i, sum := range cur.Sums {
				if im.dirty[i] || slices.Contains(im.pending.Dirty, i) {
					continue
				}
				if im.baseMan.Sums[i] != sum {
					t.Fatalf("seed %d step %d (op %d): client base drifted from its bytes at unmarked chunk %d", seed, step, op, i)
				}
				if im.BaseGen() == gen && im.baseMan.Sums[i] != man.Sums[i] {
					t.Fatalf("seed %d step %d (op %d): client and store disagree on generation %d at unmarked chunk %d", seed, step, op, gen, i)
				}
			}
			if im.BaseGen() == gen && man.Size != cur.Size {
				t.Fatalf("seed %d step %d (op %d): client and store disagree on the size of generation %d", seed, step, op, gen)
			}
		}
	}
}

// hashedBy returns how many chunk addresses f computed.
func hashedBy(f func()) uint64 {
	before := Metrics.ChunksHashed.Value()
	f()
	return Metrics.ChunksHashed.Value() - before
}

// TestDeltaHashesOnlyDirtyChunks counts chunk hashes, step by step,
// over one full checkpoint and two delta ones. A full checkpoint
// hashes every chunk once on each side: CommitFull in the store,
// CommitBase on a client that encoded nothing. A delta hashes only
// what was written: EncodeDelta the marked chunks — identical
// rewrites among them, which dedup away — ApplyDelta the dirty chunks
// it verifies, and CommitBase nothing.
func TestDeltaHashesOnlyDirtyChunks(t *testing.T) {
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	const cs = 1024
	s := NewStore()
	im := NewImage(32*cs+100, cs, 16)
	n := uint64(NumChunks(im.Size(), cs))

	var gen int
	if got := hashedBy(func() { gen, _, _ = s.CommitFull("job", im.Bytes(), cs) }); got != n {
		t.Fatalf("CommitFull hashed %d chunks, want %d", got, n)
	}
	if got := hashedBy(func() { im.CommitBase(gen) }); got != n {
		t.Fatalf("first CommitBase hashed %d chunks, want %d", got, n)
	}

	for _, rewrite := range []bool{false, true} {
		im.MutateFraction(0.25)
		if rewrite { // chunk 2 and the short final chunk, with their own bytes
			im.WriteAt(slices.Clone(im.Bytes()[2*cs:3*cs]), 2*cs)
			im.WriteAt(slices.Clone(im.Bytes()[32*cs:]), 32*cs)
		}
		marked := 0
		for _, d := range im.dirty {
			if d {
				marked++
			}
		}
		var d Delta
		var payload []byte
		if got := hashedBy(func() { d, payload = im.EncodeDelta() }); got != uint64(marked) {
			t.Fatalf("EncodeDelta hashed %d chunks, want the %d marked", got, marked)
		}
		if got := hashedBy(func() { gen, _, _ = s.ApplyDelta("job", d, payload) }); got != uint64(len(d.Dirty)) {
			t.Fatalf("ApplyDelta hashed %d chunks, want the %d dirty", got, len(d.Dirty))
		}
		if got := hashedBy(func() { im.CommitBase(gen) }); got != 0 {
			t.Fatalf("CommitBase after an encode hashed %d chunks, want 0", got)
		}
		if data, _, _, _, _ := s.Lookup("job"); !bytes.Equal(data, im.Bytes()) {
			t.Fatal("store and client differ after the delta")
		}
	}
}

// TestWriteAtAfterEncodeShipsNextDelta pins the dirty-mark contract:
// the committed base is the content EncodeDelta hashed, so a write
// between encode and commit — bytes the manager never received — stays
// marked and ships in the next delta instead of being recorded as
// committed.
func TestWriteAtAfterEncodeShipsNextDelta(t *testing.T) {
	const cs = 512
	s := NewStore()
	im := NewImage(8*cs, cs, 17)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)

	flip := func(off int64) {
		t.Helper()
		if _, err := im.WriteAt([]byte{im.Bytes()[off] ^ 0xFF}, off); err != nil {
			t.Fatal(err)
		}
	}
	flip(0) // dirties chunk 0
	d, payload := im.EncodeDelta()
	flip(5 * cs) // after the encode: chunk 5 is not in d
	gen, _, err := s.ApplyDelta("job", d, payload)
	if err != nil {
		t.Fatal(err)
	}
	im.CommitBase(gen)

	d, payload = im.EncodeDelta()
	if len(d.Dirty) != 1 || d.Dirty[0] != 5 {
		t.Fatalf("next delta: dirty=%v, want [5], the chunk written after the encode", d.Dirty)
	}
	if _, _, err := s.ApplyDelta("job", d, payload); err != nil {
		t.Fatal(err)
	}
	if data, _, _, _, _ := s.Lookup("job"); !bytes.Equal(data, im.Bytes()) {
		t.Fatal("store and client differ after the late write was shipped")
	}
}

// TestRetryReencodesPendingChunks pins the retry contract: a delta
// that was encoded but never acknowledged — Nacked, or lost with its
// connection — leaves its chunks pending, and the next encode ships
// them again beside anything written since.
func TestRetryReencodesPendingChunks(t *testing.T) {
	const cs = 256
	s := NewStore()
	im := NewImage(8*cs, cs, 18)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)

	im.WriteAt([]byte{1, 2, 3}, 2*cs)
	if d, _ := im.EncodeDelta(); !slices.Equal(d.Dirty, []int{2}) {
		t.Fatalf("first encode: dirty=%v, want [2]", d.Dirty)
	}
	im.WriteAt([]byte{4, 5, 6}, 6*cs)
	d, payload := im.EncodeDelta()
	if !slices.Equal(d.Dirty, []int{2, 6}) {
		t.Fatalf("retry: dirty=%v, want [2 6], the pending chunk and the new write", d.Dirty)
	}
	if gen, _, err := s.ApplyDelta("job", d, payload); err != nil {
		t.Fatal(err)
	} else {
		im.CommitBase(gen)
	}
	if d, _ := im.EncodeDelta(); len(d.Dirty) != 0 {
		t.Fatalf("after the commit: dirty=%v, want none", d.Dirty)
	}
}

func TestWriteAtBounds(t *testing.T) {
	im := NewImage(100, 16, 19)
	for _, tc := range []struct {
		off  int64
		n    int
		fail bool
	}{{0, 100, false}, {99, 1, false}, {100, 0, false}, {-1, 1, true}, {99, 2, true}, {101, 0, true}} {
		n, err := im.WriteAt(make([]byte, tc.n), tc.off)
		if (err != nil) != tc.fail || (err == nil && n != tc.n) {
			t.Errorf("WriteAt(%d bytes, %d) = %d, %v; want failure %v", tc.n, tc.off, n, err, tc.fail)
		}
	}
}

// TestCommittedViewsAreImmutable holds a Lookup slice and a chunk list
// taken at one generation while other goroutines keep committing
// deltas, full images and joins: the views taken before must read the
// same bytes after. Run under -race it also shows that no commit writes
// memory a reader may hold.
func TestCommittedViewsAreImmutable(t *testing.T) {
	const cs = 512
	s := NewStore()
	im := NewImage(40*cs+7, cs, 20)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)
	im.MutateFraction(0.3)
	d, payload := im.EncodeDelta()
	if gen, _, err := s.ApplyDelta("job", d, payload); err != nil {
		t.Fatal(err)
	} else {
		im.CommitBase(gen)
	}

	chunks, _, _, _, _ := s.Chunks("job") // a delta commit's chunks, in two buffers
	data, _, _, _, _ := s.Lookup("job")   // joined once for this generation
	want := bytes.Clone(data)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the writer: deltas and the occasional full image
		defer wg.Done()
		for i := 0; i < 40; i++ {
			im.MutateFraction(0.2)
			if i%10 == 9 {
				gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
				im.CommitBase(gen)
				continue
			}
			d, payload := im.EncodeDelta()
			gen, _, err := s.ApplyDelta("job", d, payload)
			if err != nil {
				t.Error(err)
				return
			}
			im.CommitBase(gen)
		}
	}()
	go func() { // a second reader joining whatever generation it finds
		defer wg.Done()
		for i := 0; i < 40; i++ {
			s.Lookup("job")
		}
	}()
	for i := 0; i < 40; i++ { // this reader rereads its old views
		if !bytes.Equal(bytes.Join(chunks, nil), want) || !bytes.Equal(data, want) {
			t.Error("a view taken before the commits changed")
			break
		}
	}
	wg.Wait()
	if !bytes.Equal(bytes.Join(chunks, nil), want) || !bytes.Equal(data, want) {
		t.Fatal("a view taken before the commits changed")
	}
	if data, _, _, _, _ := s.Lookup("job"); !bytes.Equal(data, im.Bytes()) {
		t.Fatal("store and client differ after the commits")
	}
}

// TestStoreMemoryStaysBounded commits many small deltas and checks that
// the payload buffers superseded generations may keep alive never
// outweigh the image: the store copies the image flat again first.
func TestStoreMemoryStaysBounded(t *testing.T) {
	const cs = 256
	s := NewStore()
	im := NewImage(64*cs, cs, 21)
	gen, _, _ := s.CommitFull("job", im.Bytes(), cs)
	im.CommitBase(gen)
	flats := 0
	for i := 0; i < 100; i++ {
		im.MutateFraction(0.07)
		d, payload := im.EncodeDelta()
		gen, _, err := s.ApplyDelta("job", d, payload)
		if err != nil {
			t.Fatal(err)
		}
		im.CommitBase(gen)
		s.mu.Lock()
		st := s.images["job"]
		s.mu.Unlock()
		if st.loose > st.man.Size {
			t.Fatalf("delta %d: %d loose payload bytes for a %d-byte image", i, st.loose, st.man.Size)
		}
		if st.flat != nil {
			flats++
			if !bytes.Equal(st.flat, im.Bytes()) {
				t.Fatalf("delta %d: the flat copy differs from the image", i)
			}
		}
	}
	// 5 of 64 chunks a delta: flat again every 13th or so.
	if flats < 5 || flats > 10 {
		t.Fatalf("%d of 100 deltas left the image flat, want 5–10", flats)
	}
}
