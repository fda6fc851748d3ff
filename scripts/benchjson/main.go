// Command benchjson converts `go test -bench` text output into a JSON
// baseline and gates later runs against one, with no dependency beyond
// the standard library.
//
// Record a baseline (bench text on stdin):
//
//	go test -run='^$' -bench='...' -count=5 . | go run ./scripts/benchjson -record BENCH_seed.json
//
// Gate a run against it, failing on regressions:
//
//	go test -run='^$' -bench='...' -count=5 . | \
//	    go run ./scripts/benchjson -gate BENCH_seed.json -max-regression 20 \
//	    -only 'BenchmarkTopt,BenchmarkBuildSchedule'
//
// Each benchmark's repetitions collapse to the minimum ns/op — the
// least-noise estimate of the code's true cost on the host — so a
// -count of 5 or more is recommended for both the baseline and the
// gated run. Benchmarks that b.ReportAllocs() also record allocs/op
// (again the minimum over repetitions), gated by the same percentage —
// except a zero-alloc baseline, where any allocation at all fails:
// hot paths that were allocation-free must stay allocation-free, and a
// percentage of zero grants no slack. Custom b.ReportMetric values
// (figures of merit like eff@C100) are carried into the JSON for
// reference but never gated: they are workload metrics, not
// performance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's collapsed measurement.
type Entry struct {
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the minimum allocs/op, present only for
	// benchmarks that b.ReportAllocs().
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Runs is how many repetitions the minimum was taken over.
	Runs int `json:"runs"`
	// Metrics holds custom figures of merit (unit -> value, last run).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the JSON document: benchmark name (sub-benchmark path
// included, -GOMAXPROCS suffix stripped) to entry.
type Baseline struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	record := flag.String("record", "", "write a JSON baseline to this file from bench text on stdin")
	gate := flag.String("gate", "", "compare bench text on stdin against this JSON baseline")
	maxReg := flag.Float64("max-regression", 20, "fail the gate when ns/op regresses more than this percentage")
	only := flag.String("only", "", "comma-separated benchmark name prefixes to gate (default: every baseline entry present in the input)")
	note := flag.String("note", "", "free-form note stored in a recorded baseline")
	flag.Parse()

	if (*record == "") == (*gate == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -record or -gate is required")
		os.Exit(2)
	}

	current, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *record != "" {
		doc := Baseline{Note: *note, Benchmarks: current}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*record, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d benchmarks to %s\n", len(current), *record)
		return
	}

	data, err := os.ReadFile(*gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *gate, err)
		os.Exit(1)
	}
	var prefixes []string
	if *only != "" {
		for _, p := range strings.Split(*only, ",") {
			if p = strings.TrimSpace(p); p != "" {
				prefixes = append(prefixes, p)
			}
		}
	}
	if gateRun(os.Stdout, base, current, prefixes, *maxReg) {
		os.Exit(1)
	}
}

// gateRun prints the comparison table and reports whether any gated
// benchmark regressed beyond maxReg percent.
func gateRun(w io.Writer, base Baseline, current map[string]Entry, prefixes []string, maxReg float64) (failed bool) {
	selected := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if name == p || strings.HasPrefix(name, p+"/") {
				return true
			}
		}
		return false
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if selected(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-50s %14s %14s %8s %12s %12s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	compared := 0
	for _, name := range names {
		old := base.Benchmarks[name]
		cur, ok := current[name]
		if !ok {
			fmt.Fprintf(w, "%-50s %14.0f %14s %8s\n", name, old.NsPerOp, "missing", "-")
			continue
		}
		compared++
		delta := 100 * (cur.NsPerOp - old.NsPerOp) / old.NsPerOp
		verdict := ""
		if delta > maxReg {
			verdict = "  REGRESSION"
			failed = true
		}
		oldAllocs, newAllocs := "-", "-"
		if old.AllocsPerOp != nil {
			oldAllocs = fmt.Sprintf("%.0f", *old.AllocsPerOp)
			if cur.AllocsPerOp != nil {
				newAllocs = fmt.Sprintf("%.0f", *cur.AllocsPerOp)
				switch a, b := *old.AllocsPerOp, *cur.AllocsPerOp; {
				case a == 0 && b > 0:
					// A zero-alloc baseline is a contract, not a number a
					// percentage can grow: any allocation fails.
					verdict = "  ALLOC REGRESSION"
					failed = true
				case a > 0 && 100*(b-a)/a > maxReg:
					verdict = "  ALLOC REGRESSION"
					failed = true
				}
			}
		}
		fmt.Fprintf(w, "%-50s %14.0f %14.0f %+7.1f%% %12s %12s%s\n", name, old.NsPerOp, cur.NsPerOp, delta, oldAllocs, newAllocs, verdict)
	}
	if compared == 0 {
		fmt.Fprintln(w, "benchjson: nothing to compare — selected baseline entries absent from input")
		return true
	}
	if failed {
		fmt.Fprintf(w, "FAIL: at least one benchmark regressed more than %g%%\n", maxReg)
	} else {
		fmt.Fprintf(w, "ok: %d benchmarks within %g%% of baseline\n", compared, maxReg)
	}
	return failed
}

// parseBench reads `go test -bench` text and collapses repetitions of
// each benchmark to the minimum ns/op.
func parseBench(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name-GOMAXPROCS, iterations, then (value, unit) pairs.
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a benchmark result line
		}
		var ns, allocs float64
		nsSeen, allocsSeen := false, false
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				ns, nsSeen = v, true
			case "allocs/op":
				allocs, allocsSeen = v, true
			case "B/op", "MB/s":
				// standard units we don't gate
			default:
				metrics[unit] = v
			}
		}
		if !nsSeen {
			continue
		}
		e, seen := out[name]
		if !seen || ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		if allocsSeen && (e.AllocsPerOp == nil || allocs < *e.AllocsPerOp) {
			a := allocs
			e.AllocsPerOp = &a
		}
		e.Runs++
		if len(metrics) > 0 {
			e.Metrics = metrics
		}
		out[name] = e
	}
	return out, sc.Err()
}
