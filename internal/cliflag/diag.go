package cliflag

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/cycleharvest/ckptsched/internal/obs"
)

// Diagnose runs body under the diagnostics flags the batch CLIs share
// (ckpt-sim, ckpt-experiments, ckpt-parallel, ckpt-load): -cpuprofile and
// -memprofile paths (empty = off) and -stats, which points each given
// package Instrument function at a fresh registry before body and
// prints the registry's final snapshot as JSON on stderr after it.
// Everything is torn down before Diagnose returns, so main can os.Exit
// on the error without losing a profile. prog prefixes the heap
// profile's own error lines.
func Diagnose(prog, cpuProfile, memProfile string, stats bool, instrument []func(*obs.Registry), body func() error) error {
	var reg *obs.Registry
	if stats {
		reg = obs.NewRegistry()
		for _, f := range instrument {
			f(reg)
		}
	}
	stopProfiles, err := startProfiles(prog, cpuProfile, memProfile)
	if err == nil {
		err = body()
	}
	stopProfiles()
	if stats {
		if serr := json.NewEncoder(os.Stderr).Encode(reg.Snapshot()); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// startProfiles begins CPU profiling and arranges a heap snapshot; the
// returned stop function must run before exit.
func startProfiles(prog, cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prog, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prog, err)
			}
			f.Close()
		}
	}
	return stop, nil
}

// Traced runs body under the -trace flag: with a path, body gets a
// full-fidelity tracer and the timeline is written to path once body
// succeeds; with an empty path, body gets nil and nothing is written.
func Traced(path string, body func(*obs.Tracer) error) error {
	var tracer *obs.Tracer
	if path != "" {
		tracer = obs.NewTracer(obs.TracerOptions{FullFidelity: true})
	}
	if err := body(tracer); err != nil {
		return err
	}
	return tracer.WriteFile(path)
}
