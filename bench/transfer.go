package main

import (
	"context"
	"fmt"
	"hash/crc32"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/stats"
)

// The transfer path's fixed inputs.
const (
	imageChunk     = 64 << 10 // content-address granularity
	ckptPerSession = 2
	transferJob    = "bench/1"
	// timeScale is wall seconds per virtual second. RunProcess spins for
	// T_opt virtual seconds between checkpoints and the optimizer never
	// plans under one virtual second, so at scale 1 every checkpoint
	// would cost a second of sleep; at 0.01 it costs 10 ms. The reported
	// times are the process's own measurements converted back to wall
	// time (CheckpointSecs × timeScale).
	timeScale = 0.01
	// assignMTBF is the exponential availability the manager assigns, in
	// virtual seconds: so short that T_opt sits at the optimizer's
	// one-second floor for any measured cost from 5 to 100 virtual
	// seconds (50 ms to 1 s of wall time per transfer), which keeps the
	// spin at 10 ms; a T_opt still exists, so no interval falls back.
	assignMTBF = 1.0
)

// transferEnv is a listening checkpoint manager holding one committed
// image of the bench job.
type transferEnv struct {
	mgr   *ckptnet.Manager
	addr  string
	ckpts int // checkpoints committed so far, the expected generation
}

// newTransferEnv boots a manager as cmd/ckpt-mgr does without -metrics
// and runs the job's first session (legacy recovery, one full commit),
// so every measured session starts by recovering a committed image and
// ships deltas against it.
func newTransferEnv(w *workload, seed int64) (*transferEnv, error) {
	assign := ckptnet.AssignerFunc(func(ckptnet.Hello) (ckptnet.Assign, error) {
		return ckptnet.Assign{
			Model:           fit.ModelExponential,
			Params:          []float64{1 / assignMTBF},
			CheckpointBytes: w.imageBytes,
			HeartbeatSec:    1e9, // the spin ends with a single heartbeat frame
		}, nil
	})
	mgr, err := ckptnet.NewManagerOpts(assign, ckptnet.Options{})
	if err != nil {
		return nil, err
	}
	addr, err := mgr.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &transferEnv{mgr: mgr, addr: addr.String()}
	rep, err := env.session(w, seed, 1)
	if err == nil && (len(rep.CheckpointSecs) != 1 || rep.DeltaCheckpoints != 0) {
		err = fmt.Errorf("first session committed %d checkpoints, %d as deltas", len(rep.CheckpointSecs), rep.DeltaCheckpoints)
	}
	if err != nil {
		mgr.Close()
		return nil, fmt.Errorf("transfer set-up: %w", err)
	}
	return env, nil
}

// session runs one client session of the bench job to n committed
// checkpoints. seed drives the image content and its dirty sets.
func (env *transferEnv) session(w *workload, seed int64, n int) (*ckptnet.ProcessReport, error) {
	rep, err := ckptnet.RunProcess(context.Background(), ckptnet.ProcessConfig{
		Addr:         env.addr,
		JobID:        transferJob,
		TimeScale:    timeScale,
		MaxIntervals: n,
		Delta: &ckptnet.DeltaConfig{
			ChunkSize: imageChunk,
			DirtyFrac: w.dirtyFrac,
			Seed:      seed,
		},
	})
	if err != nil {
		return nil, err
	}
	env.ckpts += len(rep.CheckpointSecs)
	return rep, nil
}

func (env *transferEnv) close() { env.mgr.Close() }

// transferFigures is what one transfer pass measured.
type transferFigures struct {
	ckptP50ms, recoveryP50ms float64
	wirePerImageByte         float64
	checkpoints, deltas      int
	torn, retries, fallbacks int
	counts                   loadCounts
}

// runTransfer is the transfer phase: sc.sessions sessions of two
// checkpoints each against the same job, every one beginning with the
// recovery of the committed image.
func runTransfer(env *transferEnv, w *workload, sc *scale, seed int64, rec *recorder) (transferFigures, error) {
	var f transferFigures
	var ckptMs, recMs []float64
	var wire int64
	for s := 0; s < sc.sessions; s++ {
		// The committed image before the session: the client adopts it, so
		// the harness can replay the client's mutations on a copy.
		before, _, gen, _, _ := env.mgr.Store().Lookup(transferJob)
		sessSeed := seed + int64(s) + 1

		sp := rec.start("transfer.session")
		rep, err := env.session(w, sessSeed, ckptPerSession)
		sp.end()
		f.counts.attempted += ckptPerSession + 1 // one recovery, two checkpoints
		if err != nil {
			return f, fmt.Errorf("transfer session %d: %w", s, err)
		}
		for _, c := range rep.CheckpointSecs {
			ckptMs = append(ckptMs, c*timeScale*1e3)
		}
		recMs = append(recMs, rep.RecoverySec*timeScale*1e3)
		wire += rep.WireBytes
		f.checkpoints += len(rep.CheckpointSecs)
		f.deltas += rep.DeltaCheckpoints
		f.torn += rep.TornFrames
		f.retries += rep.Retries + rep.CkptRetries
		f.fallbacks += rep.Fallbacks

		// Output check: the manager holds the generation the job reached,
		// and its image is the client's — rebuilt here from the same seed.
		sp = rec.start("transfer.verify")
		mirror := imagestore.NewImage(w.imageBytes, imageChunk, sessSeed)
		mirror.Adopt(before, gen)
		for i := 0; i < ckptPerSession; i++ {
			mirror.MutateFraction(w.dirtyFrac)
		}
		want := crc32.ChecksumIEEE(mirror.Bytes())
		sp.end()
		img, ok := env.mgr.Image(transferJob)
		clean := rep.TornFrames == 0 && rep.Retries == 0 && rep.CkptRetries == 0 && rep.Fallbacks == 0
		if !ok || img.Generation != env.ckpts || img.CRC32 != want || len(rep.CheckpointSecs) != ckptPerSession || !clean {
			f.counts.failed += ckptPerSession + 1
		}
	}
	for _, l := range env.mgr.Sessions() {
		f.torn += l.Summarize().TornFrames // the manager's view: rejected checkpoint streams
	}
	f.ckptP50ms = stats.Median(ckptMs)
	f.recoveryP50ms = stats.Median(recMs)
	f.wirePerImageByte = float64(wire) / (float64(f.checkpoints) * float64(w.imageBytes))
	return f, nil
}
