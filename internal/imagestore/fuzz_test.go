package imagestore

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzApplyDelta throws arbitrary deltas and payloads at a store
// holding a committed base — the manifest half arrives in a control
// frame and the payload as a raw stream, so both are socket input.
// ApplyDelta must never panic, and whenever it refuses a delta Lookup
// must still return the base, byte for byte, at its generation.
//
// dirty is read as one chunk index per byte. With honest set, Sums are
// computed from the payload the way a real client would, so the fuzzer
// also reaches the commit path instead of stopping at verification.
func FuzzApplyDelta(f *testing.F) {
	const cs = 64
	base := NewImage(4*cs+10, cs, 1).Bytes()

	f.Add(1, cs, int64(len(base)), []byte{1}, base[cs:2*cs], true)
	f.Add(1, cs, int64(len(base)), []byte{}, []byte{}, true)             // identical image
	f.Add(1, cs, int64(6*cs), []byte{4, 5}, make([]byte, 2*cs), true)    // grow
	f.Add(1, cs, int64(cs), []byte{}, []byte{}, true)                    // shrink
	f.Add(7, cs, int64(len(base)), []byte{0}, base[:cs], true)           // stale base
	f.Add(1, 2*cs, int64(len(base)), []byte{0}, base[:2*cs], true)       // wrong geometry
	f.Add(1, cs, int64(len(base)), []byte{2, 1}, base[cs:3*cs], true)    // unordered
	f.Add(1, cs, int64(2*cs), []byte{0, 3}, []byte{}, false)             // spans cancel to an empty payload
	f.Add(1, cs, int64(1)<<50, []byte{}, []byte{}, false)                // absurd size, nothing to back it
	f.Add(1, cs, int64(-1), []byte{0}, base[:cs], false)                 // negative size
	f.Add(1, cs, int64(len(base)), []byte{4}, base[4*cs:], false)        // bad sums on the short chunk
	f.Add(1, cs, int64(len(base)), []byte{0, 1, 2, 3, 4, 5}, base, true) // index past the end

	f.Fuzz(func(t *testing.T, baseGen, chunkSize int, size int64, dirty, payload []byte, honest bool) {
		s := NewStore()
		gen, _, crc := s.CommitFull("job", base, cs)

		d := Delta{BaseGen: baseGen, ChunkSize: chunkSize, Size: size}
		off := int64(0)
		for _, b := range dirty {
			i := int(b)
			d.Dirty = append(d.Dirty, i)
			var sum ChunkSum
			if lo, hi := chunkSpan(i, chunkSize, size); honest && hi > lo && off+hi-lo <= int64(len(payload)) {
				sum = sumChunk(payload[off : off+hi-lo])
				off += hi - lo
			}
			d.Sums = append(d.Sums, sum)
		}

		newGen, newCRC, err := s.ApplyDelta("job", d, payload)
		data, man, curGen, curCRC, ok := s.Lookup("job")
		if !ok {
			t.Fatal("committed job vanished")
		}
		if err != nil {
			if curGen != gen || curCRC != crc || !bytes.Equal(data, base) {
				t.Fatalf("refused delta (%v) disturbed the base: gen %d→%d", err, gen, curGen)
			}
			return
		}
		if newGen != gen+1 || curGen != newGen || curCRC != newCRC || int64(len(data)) != size {
			t.Fatalf("commit bookkeeping: gen %d→%d (lookup %d), %d bytes for size %d", gen, newGen, curGen, len(data), size)
		}
		// The store patches its manifest and combines its CRC from the
		// chunk CRCs; both must be what a pass over the committed bytes
		// computes, and the chunk list must hold those bytes.
		if !sameManifest(man, BuildManifest(data, cs)) {
			t.Fatalf("committed manifest drifted from the %d committed bytes", len(data))
		}
		if want := crc32.ChecksumIEEE(data); curCRC != want {
			t.Fatalf("committed CRC %08x, the bytes' %08x", curCRC, want)
		}
		if chunks, _, _, _, _ := s.Chunks("job"); !bytes.Equal(bytes.Join(chunks, nil), data) {
			t.Fatal("chunk list and Lookup disagree")
		}
	})
}

// FuzzCRCCombine holds the whole-image CRC the store combines from
// chunk CRCs to crc32.ChecksumIEEE over the image, for arbitrary bytes
// cut at arbitrary chunk sizes: it is announced in recovery frames, so
// the value is a wire contract.
func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte{}, 64)                             // the empty image
	f.Add([]byte("a"), 1)                           // one one-byte chunk
	f.Add([]byte("chunk size one, many chunks"), 1) // chunk size 1
	f.Add(bytes.Repeat([]byte{0xA5}, 200), 64)      // a short final chunk
	f.Add(bytes.Repeat([]byte{0}, 128), 64)         // zeros, chunk-aligned
	f.Add(NewImage(4096+3, 0, 1).Bytes(), 1000)     // pseudo-random content
	f.Fuzz(func(t *testing.T, data []byte, chunkSize int) {
		if chunkSize <= 0 || chunkSize > len(data)+1 {
			chunkSize = 1 + int(uint(chunkSize)%uint(len(data)+1))
		}
		if got, want := BuildManifest(data, chunkSize).imageCRC(), crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("%d bytes in %d-byte chunks: combined CRC %08x, ChecksumIEEE %08x", len(data), chunkSize, got, want)
		}
	})
}

// FuzzSumChunk holds the eight-bytes-a-step hash to the byte loop it
// replaced: sums travel in delta frames and sit in stored manifests,
// so the value is a wire contract.
func FuzzSumChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("1234567"))
	f.Add([]byte("12345678"))
	f.Add(bytes.Repeat([]byte{0xFF}, 67))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := sumChunk(b), sumChunkRef(b); got != want {
			t.Fatalf("%d bytes: sumChunk = %+v, byte loop = %+v", len(b), got, want)
		}
	})
}
