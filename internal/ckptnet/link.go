// Package ckptnet implements the paper's §5.2 instrumented checkpoint
// system: a checkpoint manager that serves recovery images and
// receives checkpoints, and a test process that runs the
// recovery–compute–checkpoint cycle, emitting heartbeats every 10
// seconds and recomputing T_opt from each measured transfer time.
//
// The package has two halves. The protocol half (Manager/Process) is a
// real TCP implementation usable on a live network — the cmd/ckpt-mgr
// and cmd/ckpt-proc tools wrap it, and the integration tests run it
// over loopback. The link half models transfer durations for the
// virtual-time experiments: the emulated campus link is calibrated so
// a 500 MB image takes ≈110 s on average, and the emulated wide-area
// link ≈475 s, matching the paper's two manager placements (University
// of Wisconsin campus vs the authors' home institution across the
// Internet).
package ckptnet

import (
	"fmt"
	"math"
	"math/rand"
)

// MB is one megabyte in bytes.
const MB = 1 << 20

// Link models one network path's transfer-time behavior.
type Link interface {
	// TransferTime returns the duration in seconds a transfer of the
	// given size would take, drawn with rng (transfer times vary
	// run-to-run on shared networks).
	TransferTime(bytes int64, rng *rand.Rand) float64
	// Name identifies the link profile.
	Name() string
}

// EmulatedLink is a shared-network path with lognormal variability
// around a mean bandwidth, plus a fixed setup latency.
type EmulatedLink struct {
	// ProfileName labels the link in logs.
	ProfileName string
	// MeanMBps is the long-run average goodput in MB/s.
	MeanMBps float64
	// Sigma is the lognormal jitter parameter (0 = deterministic).
	// The multiplicative noise e^(σZ − σ²/2) is mean-one, so MeanMBps
	// is preserved.
	Sigma float64
	// LatencySec is the per-transfer setup cost in seconds.
	LatencySec float64
}

// TransferTime implements Link.
func (l EmulatedLink) TransferTime(bytes int64, rng *rand.Rand) float64 {
	if bytes <= 0 {
		return l.LatencySec
	}
	base := float64(bytes) / (l.MeanMBps * MB)
	noise := 1.0
	if l.Sigma > 0 && rng != nil {
		noise = math.Exp(l.Sigma*rng.NormFloat64() - l.Sigma*l.Sigma/2)
	}
	return l.LatencySec + base*noise
}

// Name implements Link.
func (l EmulatedLink) Name() string {
	if l.ProfileName != "" {
		return l.ProfileName
	}
	return fmt.Sprintf("emulated(%.3g MB/s)", l.MeanMBps)
}

// CampusLink returns a link profile calibrated to the paper's on-campus
// manager placement: 500 MB in ≈110 s (≈4.5 MB/s) with mild
// variability.
func CampusLink() EmulatedLink {
	return EmulatedLink{
		ProfileName: "campus",
		MeanMBps:    500.0 * MB / 110.0 / MB, // ≈4.545 MB/s
		Sigma:       0.15,
		LatencySec:  0.05,
	}
}

// WideAreaLink returns a link profile calibrated to the paper's
// cross-Internet manager placement: 500 MB in ≈475 s (≈1.05 MB/s) with
// substantial variability.
func WideAreaLink() EmulatedLink {
	return EmulatedLink{
		ProfileName: "wide-area",
		MeanMBps:    500.0 * MB / 475.0 / MB, // ≈1.053 MB/s
		Sigma:       0.35,
		LatencySec:  0.2,
	}
}

// FixedLink returns a deterministic link with the given transfer
// duration for size refBytes. Test seam: no program runs on it; the
// ckptnet and live tests use it to pin exact transfer times that the
// calibrated, jittered links cannot.
func FixedLink(name string, refBytes int64, seconds float64) EmulatedLink {
	return EmulatedLink{
		ProfileName: name,
		MeanMBps:    float64(refBytes) / seconds / MB,
	}
}
