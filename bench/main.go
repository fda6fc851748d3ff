// Command bench is the repository's end-to-end benchmark: it drives the
// serve, transfer and campaign paths in one process, through the
// constructors the binaries use, over loopback TCP where the path has a
// socket, checks the outputs, and prints every metric by name with its
// unit. BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory explains them.
//
//	bash bench/run.sh --workload steady_delta --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one set of inputs for the five phases. Every workload
// runs every phase and reports every end-to-end metric; what differs is
// how much the inputs share and how large they are.
type workload struct {
	name, why string

	// serve_lookup, serve_install
	keys     int     // schedules pre-installed
	zipf     float64 // key skew of the lookup stream; 0 = uniform
	coldFrac float64 // lookups aimed at never-installed keys (404 is correct)
	histLen  int     // history points per installed key

	// transfer
	imageBytes int64
	dirtyFrac  float64 // share of chunks rewritten between checkpoints

	// campaign_paper
	machines     int
	months       float64
	samples      int
	studySamples int // chaos and delta studies; 0 = the binary's default of 5

	// sim_fleet
	workers    int
	fleetTurns int // at the nominal run length
	herd       int // workers of the traced run's one-shot hour (parallel.w1M_1h_s)
}

var workloads = []workload{
	{
		name: "steady_delta",
		why:  "sharing inputs: Zipf-hot keys, 1000-point histories (fit-heavy installs), 5% dirty images (manifest-bound deltas), paper-scale campaign (pool seed fixed at 2005, not --seed), 4096-worker herd",
		keys: 1024, zipf: 1.1, coldFrac: 0.01, histLen: 1000,
		imageBytes: 32 << 20, dirtyFrac: 0.05,
		machines: 80, months: 18, samples: 85,
		workers: 4096, fleetTurns: 12, herd: 1 << 20,
	},
	{
		name: "churn_full",
		why:  "non-sharing inputs: uniform keys, 10% unknown; 250-point histories (build-bound installs); all chunks dirty (stream/CRC-bound); half-size campaign (pool seed fixed at 2005); 1024-worker herd",
		keys: 1024, zipf: 0, coldFrac: 0.10, histLen: 250,
		imageBytes: 32 << 20, dirtyFrac: 1.0,
		machines: 40, months: 9, samples: 84,
		workers: 1024, fleetTurns: 24, herd: 1 << 20,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// nominalSeconds is the run length the phase sizes below are quoted
// for: a whole run, set-up included, ends within it on the two-core box
// the benchmark was defined on (about 51 s and 43 s). --seconds scales
// the sizes in proportion (the campaign is one iteration whatever the
// length).
const nominalSeconds = 55

// scale is how much of each phase one pass runs.
type scale struct {
	warm, closedSeg, openSeg time.Duration
	installs                 int
	sessions                 int
	fleetTurns               int
	setups                   int // set-up is repeated this often; the median is reported
}

func newScale(w *workload, seconds float64) *scale {
	f := seconds / nominalSeconds
	dur := func(d time.Duration, floor time.Duration) time.Duration {
		return max(time.Duration(float64(d)*f), floor)
	}
	count := func(n, floor int) int {
		return max(int(math.Round(float64(n)*f)), floor)
	}
	return &scale{
		warm:       dur(250*time.Millisecond, 20*time.Millisecond),
		closedSeg:  dur(500*time.Millisecond, 10*time.Millisecond),
		openSeg:    dur(time.Second, 10*time.Millisecond),
		installs:   count(1200, 8),
		sessions:   count(12, 2),
		fleetTurns: count(w.fleetTurns, 2),
		setups:     3,
	}
}

// shrink cuts a workload to smoke-test size: the same code paths in a
// couple of seconds. Only the tests call it.
func (w *workload) shrink() {
	w.keys = 64
	w.imageBytes = 1 << 20
	w.machines, w.months, w.samples, w.studySamples = 12, 4, 2, 1
	w.workers, w.herd = 128, 1<<12
}

// Phase names.
const (
	phaseFleet    = "sim_fleet"
	phaseLookup   = "serve_lookup"
	phaseInstall  = "serve_install"
	phaseTransfer = "transfer"
	phaseCampaign = "campaign_paper"
)

// allPhases is the run order.
var allPhases = []string{phaseFleet, phaseLookup, phaseInstall, phaseTransfer, phaseCampaign}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run ends with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is the parsed command line, plus the two paths the tests
// point elsewhere.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	outDir   string // the traced run's span files
	spec     string // BENCHMARK.json, for the bounds --repeat compares against
}

func main() {
	o := options{outDir: "bench/out", spec: "BENCHMARK.json"}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "run length the phases are sized for")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, budget tables, span file")
	flag.IntVar(&o.repeat, "repeat", 0, "run the untraced suite this many times and compare every end-to-end metric against its bound")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 || (o.repeat > 0 && o.trace) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments, non-positive -seconds, or -repeat with -trace 1 (it compares end-to-end metrics, which only the untraced run reports)")
		os.Exit(2)
	}

	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if findWorkload(n) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	printEnv(os.Stdout, o)

	if o.repeat > 0 {
		ok, err := repeatSuite(os.Stdout, o, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	correct := true
	for _, n := range names {
		rep, err := runWorkload(os.Stdout, o, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(rep)
		fmt.Printf("%s\n", line)
		correct = correct && rep.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// printEnv echoes what the numbers depend on besides the code.
func printEnv(w io.Writer, o options) {
	fmt.Fprintf(w, "# seed %d (campaign pool seed %d, fixed), seconds %g, trace %v, nproc %d, GOMAXPROCS %d, %s %s/%s, cpu %q\n",
		o.seed, campaignSeed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" off
// Linux).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runWorkload runs one workload as the command line asks — untraced for
// the end-to-end metrics, or the traced variant for the per-layer ones —
// printing each metric as it goes, and returns the final report.
func runWorkload(out io.Writer, o options, name string) (*report, error) {
	w := findWorkload(name)
	fmt.Fprintf(out, "## workload %s\n", w.name)
	if o.trace {
		return runTraced(out, o, w)
	}
	fig, err := runPass(w, newScale(w, o.seconds), o.seed, nil)
	if err != nil {
		return nil, err
	}
	rep := fig.report()
	printMetrics(out, rep.Metrics, endToEndOrder)
	fig.printSummary(out)
	return rep, nil
}

// printMetrics prints the named metrics that are present, in order.
func printMetrics(out io.Writer, ms map[string]metric, order []string) {
	for _, n := range order {
		if m, ok := ms[n]; ok {
			fmt.Fprintf(out, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
}
