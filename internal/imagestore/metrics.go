package imagestore

import "github.com/cycleharvest/ckptsched/internal/obs"

// Metrics holds the image store's observability hooks. All fields are
// nil-safe obs counters, so the store runs at full speed with no
// registry attached (the internal/obs contract).
var Metrics struct {
	// ChunksHashed counts chunk addresses computed: by BuildManifest,
	// EncodeDelta, CommitBase, and ApplyDelta's verification.
	ChunksHashed *obs.Counter
	// DeltaCommits counts successful delta applications.
	DeltaCommits *obs.Counter
	// FullCommits counts full-image commits.
	FullCommits *obs.Counter
	// RejectedDeltas counts deltas the store refused: chunk verification
	// failures and base-coverage violations (base-generation mismatches
	// are counted by the manager as Nacks, not here).
	RejectedDeltas *obs.Counter
}

// Instrument points the package's metrics at r (DESIGN.md §11 lists
// the names). Call before transfers start, typically from main;
// Instrument(nil) turns instrumentation off.
func Instrument(r *obs.Registry) {
	Metrics.ChunksHashed = r.Counter("imagestore_chunks_hashed_total",
		"Chunk content addresses computed.")
	Metrics.DeltaCommits = r.Counter("imagestore_delta_commits_total",
		"Delta checkpoint images committed.")
	Metrics.FullCommits = r.Counter("imagestore_full_commits_total",
		"Full checkpoint images committed.")
	Metrics.RejectedDeltas = r.Counter("imagestore_rejected_deltas_total",
		"Deltas refused by verification (excludes base-generation Nacks).")
}
