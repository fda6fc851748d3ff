package imagestore

import "testing"

// BenchmarkChunkDedup measures the per-checkpoint manifest+diff cost on
// a 16 MB image with 10% of chunks dirty — the hot path every delta
// transfer pays before any byte hits the wire.
func BenchmarkChunkDedup(b *testing.B) {
	im := NewImage(16<<20, DefaultChunkSize, 1)
	prev := BuildManifest(im.Bytes(), DefaultChunkSize)
	im.MutateFraction(0.1)
	b.SetBytes(16 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := BuildManifest(im.Bytes(), DefaultChunkSize)
		if dirty := Diff(prev, cur); len(dirty) == 0 {
			b.Fatal("expected dirty chunks")
		}
	}
}

// BenchmarkDeltaEncode measures client-side delta encoding against a
// committed base: hash the marked chunks, compare each with its base
// sum, assemble the payload. Nothing commits between iterations, so
// each one re-encodes the pending chunks, as a retry does.
func BenchmarkDeltaEncode(b *testing.B) {
	im := NewImage(16<<20, DefaultChunkSize, 2)
	im.CommitBase(1)
	im.MutateFraction(0.1)
	b.SetBytes(16 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, payload := im.EncodeDelta()
		if len(d.Dirty) == 0 || len(payload) == 0 {
			b.Fatal("expected non-empty delta")
		}
	}
}

// BenchmarkApplyDelta measures the manager's side of a delta
// checkpoint — verify the dirty chunks, patch the chunk list and
// manifest, combine the CRC, and now and then copy the image flat —
// on a 16 MB image with 10% of chunks dirty.
func BenchmarkApplyDelta(b *testing.B) {
	im := NewImage(16<<20, DefaultChunkSize, 3)
	s := NewStore()
	gen, _, _ := s.CommitFull("job", im.Bytes(), DefaultChunkSize)
	im.CommitBase(gen)
	im.MutateFraction(0.1)
	d, payload := im.EncodeDelta()
	b.SetBytes(16 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		// The same patch, re-addressed to the generation it just made.
		if d.BaseGen, _, err = s.ApplyDelta("job", d, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitBase measures the client's side of a delta checkpoint
// from encode to commit — EncodeDelta, then CommitBase on the Ack —
// which hashes the marked chunks once and nothing else.
func BenchmarkCommitBase(b *testing.B) {
	im := NewImage(16<<20, DefaultChunkSize, 4)
	im.CommitBase(1)
	b.SetBytes(16 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		im.MutateFraction(0.1)
		b.StartTimer()
		if d, _ := im.EncodeDelta(); len(d.Dirty) == 0 {
			b.Fatal("expected dirty chunks")
		}
		im.CommitBase(i + 2)
	}
}
