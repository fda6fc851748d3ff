package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/cycleharvest/ckptsched/internal/imagestore"
	"github.com/cycleharvest/ckptsched/internal/obs"
)

// runTraced is the --trace 1 run. It runs the phases twice at half
// length — untraced, then with the span recorder on — so the two can be
// compared, then replays each phase's inputs through one layer at a
// time. It prints a budget per phase (layer self time against the
// untraced end-to-end figure) and reports the per-layer metrics; the
// spans go to <out>/trace-<workload>.json.
func runTraced(out io.Writer, o options, w *workload) (*report, error) {
	sc := newScale(w, o.seconds/2)
	layers := layerSet{}
	var counts loadCounts

	// imagestore's rejected-delta counter is the one layer count the
	// harness cannot see from outside.
	reg := obs.NewRegistry()
	imagestore.Instrument(reg)
	defer imagestore.Instrument(nil)

	plain, err := runPass(w, sc, o.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	counts.add(plain.counts())
	fmt.Fprintln(out, "# untraced pass (half length)")
	printMetrics(out, plain.report().Metrics, endToEndOrder)
	plain.printSummary(out)

	rec := newRecorder()
	traced, err := runPass(w, sc, o.seed, rec)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	counts.add(traced.counts())

	// Tracing overhead: how much worse the traced pass's headline figure
	// is, per phase.
	worse := func(name string, plainV, tracedV float64, higherBetter bool) {
		pct := 100 * (tracedV - plainV) / plainV
		if higherBetter {
			pct = -pct
		}
		layers.set("bench.trace_overhead_pct."+name, pct, "%")
	}
	worse(phaseLookup, plain.lookup.rps, traced.lookup.rps, true)
	worse(phaseInstall, plain.install.perSec, traced.install.perSec, true)
	worse(phaseTransfer, plain.transfer.ckptP50ms, traced.transfer.ckptP50ms, false)
	worse(phaseCampaign, plain.campaign.wallS, traced.campaign.wallS, false)
	worse(phaseFleet, plain.fleet.workerHoursPerS, traced.fleet.workerHoursPerS, true)

	var budgets []*budget

	// serve_lookup and serve_install: the probes need a live server with
	// the key space installed.
	{
		env, err := newServeEnv(w, sc, o.seed, false)
		if err != nil {
			return nil, err
		}
		sp := rec.start("replay.serve")
		probe, c, err := probeServe(env, sc, rec, layers)
		if err == nil {
			counts.add(c)
			c, err = probeObs(env, w, sc, o.seed, rec, layers)
			counts.add(c)
		}
		sp.end()
		env.close()
		if err != nil {
			return nil, err
		}

		layers.set("serve.fast_rps", plain.lookup.rps, "req/s")
		layers.set("serve.gen_late_p99_us", plain.lookup.lateP99, "us")
		perReq := 1e9 * float64(runtime.NumCPU()) / plain.lookup.rps
		layers.set("serve.transport_residual_ns", perReq-probe.handlerNs, "ns")
		b := &budget{phase: phaseLookup, what: "closed-loop time per request on one connection", unit: "ns", total: perReq}
		b.add("markov (LookupFrom)", probe.lookupNs)
		b.add("serve (handler less lookup)", probe.handlerNs-probe.lookupNs)
		budgets = append(budgets, b)

		for _, m := range installModels {
			layers.set("serve.install_p50_ms."+m, plain.install.byModelMs[m], "ms")
		}
		layers.set("serve.lookup_under_install_p99_us", plain.install.readerP99, "us")
		var fitMs, buildMs float64
		for _, m := range installModels {
			fitMs += probe.fitMs[m] / float64(len(installModels))
			buildMs += probe.buildMs[m] / float64(len(installModels))
		}
		b = &budget{phase: phaseInstall, what: "time per install, one waiting caller", unit: "ms", total: 1e3 / plain.install.perSec}
		b.add("fit (mean of the four families)", fitMs)
		b.add("markov (BuildSchedule, same mean)", buildMs)
		budgets = append(budgets, b)
	}

	// transfer
	{
		sp := rec.start("replay.transfer")
		probe, c, err := probeTransfer(w, o.seed, rec, layers)
		sp.end()
		if err != nil {
			return nil, err
		}
		counts.add(c)
		t := plain.transfer
		layers.set("ckptnet.checkpoints", float64(t.checkpoints), "count")
		layers.set("ckptnet.delta_checkpoints", float64(t.deltas), "count")
		layers.set("ckptnet.torn_frames", float64(t.torn), "count")
		layers.set("ckptnet.retries", float64(t.retries), "count")
		layers.set("ckptnet.fallbacks", float64(t.fallbacks), "count")
		layers.set("imagestore.dedup_ratio", 1-t.wirePerImageByte, "ratio")
		layers.set("imagestore.rejected_deltas", float64(reg.Snapshot().Counters["imagestore_rejected_deltas_total"]), "count")
		b := &budget{phase: phaseTransfer, what: "ckpt_p50_ms, one committed checkpoint", unit: "ms", total: t.ckptP50ms}
		b.add("imagestore.EncodeDelta (client)", probe.encodeMs)
		b.add("crc32 of the payload (client)", probe.crcMs)
		b.add("ckptnet frames (begin + ack)", 2*probe.frameMs)
		b.add("ckptnet stream (write, read, CRC)", probe.streamMs)
		b.add("imagestore.ApplyDelta (manager)", probe.applyMs)
		b.add("imagestore CommitBase (client)", probe.commitBaseMs)
		layers.set("ckptnet.residual_ms", b.residual(), "ms")
		budgets = append(budgets, b)
	}

	// campaign_paper
	{
		sp := rec.start("replay.campaign")
		c, err := probeCampaign(w, rec, layers)
		sp.end()
		if err != nil {
			return nil, err
		}
		counts.add(c)
		sum := 0.0
		for _, st := range plain.campaign.stages {
			layers.set("experiments."+st.name+"_s", st.s, "s")
			sum += st.s
		}
		layers.set("experiments.residual_s", plain.campaign.wallS-sum, "s")
		// The budget uses the traced pass's real nested spans.
		b := &budget{phase: phaseCampaign, what: "campaign_wall_s", unit: "s", total: plain.campaign.wallS}
		self := rec.selfSeconds(phaseCampaign)
		for _, name := range sortedKeys(self) {
			if name != phaseCampaign {
				b.add(name, self[name])
			}
		}
		budgets = append(budgets, b)
	}

	// sim_fleet
	{
		sp := rec.start("replay.fleet")
		c, err := probeFleet(w, o.seed, rec, layers)
		sp.end()
		if err != nil {
			return nil, err
		}
		counts.add(c)
		f := plain.fleet
		turnMs := 1e3 * float64(w.workers) * fleetHours * float64(len(fleetPolicies)) / f.workerHoursPerS
		b := &budget{phase: phaseFleet, what: "time per turn of the three policies", unit: "ms", total: turnMs}
		// Rows from the untraced pass: the traced pass runs in the heap the
		// first pass left behind, which alone moves a fleet run by a fifth.
		for _, pol := range fleetPolicies {
			layers.set("parallel.ms."+pol.String(), f.policyMs[pol.String()], "ms")
			b.add("parallel.Run, stagger "+pol.String(), f.policyMs[pol.String()])
		}
		layers.set("parallel.commits", float64(f.commits), "count")
		layers.set("parallel.failures", float64(f.failures), "count")
		budgets = append(budgets, b)
	}

	for _, p := range allPhases {
		layers.set("proc.alloc_mb."+p, float64(plain.phaseAllocB[p])/1e6, "MB")
	}
	layers.set("proc.gc_cycles", float64(plain.gcCycles), "count")
	layers.set("proc.peak_rss_mb", peakRSSMB(), "MB")

	for _, b := range budgets {
		b.print(out)
	}
	names := sortedKeys(layers)
	printMetrics(out, layers, names)
	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := rec.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(rec.spans), path)
	return &report{
		Correct:   counts.failed == 0 && counts.attempted > 0,
		Attempted: counts.attempted,
		Failed:    counts.failed,
		Metrics:   layers,
	}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where there is none).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1e3
		}
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// repeatSuite runs the untraced suite o.repeat times on the same tree,
// each run in a process of its own, as the driver runs it (a second run
// in the same process would start sim_fleet in the heap the first left
// behind, which alone costs it a fifth), and compares the runs of each
// workload against the bounds in BENCHMARK.json. It reports false when
// any run differs from the first by more than a bound or a count metric
// differs; a run with a failed operation is an error.
func repeatSuite(out io.Writer, o options, names []string) (bool, error) {
	spec, err := readSpec(o.spec)
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, name := range names {
		var runs []*report
		for i := 0; i < o.repeat; i++ {
			fmt.Fprintf(out, "# run %d of %d\n", i+1, o.repeat)
			var stdout bytes.Buffer
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stdout = io.MultiWriter(out, &stdout)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("run %d of %s: %w", i+1, name, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return false, fmt.Errorf("run %d of %s: last line: %w", i+1, name, err)
			}
			runs = append(runs, &rep)
		}
		fmt.Fprintf(out, "## repeat %s: %d runs\n", name, o.repeat)
		ok = compareRuns(out, spec.EndToEnd, runs) && ok
	}
	return ok, nil
}

// compareRuns prints, per end-to-end metric, every run's value, the
// largest relative difference from the first run (in either direction:
// which run came first is arbitrary) and the metric's bound. It reports
// false when that exceeds the bound, or when a count metric differs at
// all.
func compareRuns(out io.Writer, metrics []metricSpec, runs []*report) bool {
	ok := true
	for _, m := range metrics {
		first := runs[0].Metrics[m.Name].Value
		diff := 0.0
		var vals []string
		for _, r := range runs {
			v := r.Metrics[m.Name].Value
			vals = append(vals, strconv.FormatFloat(v, 'g', 6, 64))
			diff = math.Max(diff, math.Abs(v-first)/first)
		}
		verdict := "ok"
		if diff > m.Bound || (countMetrics[m.Name] && diff != 0) {
			verdict = "DISAGREE"
			ok = false
		}
		fmt.Fprintf(out, "%-28s %-32s diff %6.2f %%  bound %5.1f %%  %s\n",
			m.Name, strings.Join(vals, " / "), 100*diff, 100*m.Bound, verdict)
	}
	return ok
}
