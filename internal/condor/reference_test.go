package condor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// matchReference is the full-scan matchmaker the free-machine set
// replaced, kept verbatim as the oracle for the equivalence tests: for
// every queued job, in FIFO order, it scans every machine in
// declaration order and takes the first idle, unoccupied one that
// matches. It never consults the free set, so a bookkeeping bug there
// (a bit left set on a busy machine, a bit never set on a freed one)
// shows up as a divergent placement log.
func matchReference(p *Pool) {
	remaining := p.queue[:0]
	for _, j := range p.queue {
		placed := false
		for _, ms := range p.machines {
			if ms.idle && ms.running == nil && matches(ms.spec, j) {
				p.place(j, ms)
				placed = true
				break
			}
		}
		if !placed {
			remaining = append(remaining, j)
		}
	}
	p.queue = remaining
}

// poolEvent is one line of a pool's observable history.
type poolEvent struct {
	kind    string // start, evict, complete, or "<call> failed"
	job     string
	machine string
	at      float64
}

// jobSpec is a job's requirements, instantiated once per pool.
type jobSpec struct {
	name    string
	mb      int
	arch    string
	requeue bool
}

// poolOp is one scripted pool call at a virtual time.
type poolOp struct {
	at   float64
	kind string // submit, remove, complete
	job  int
}

// poolRun is what a scripted run left behind.
type poolRun struct {
	log               []poolEvent
	starts, evictions int
	queueLen          int
	states            []JobState
}

// runScript builds a pool over machines, applies the scripted calls
// from the pool's event loop and runs to horizon. reference selects
// the full-scan matchmaker.
func runScript(t *testing.T, machines []Machine, seed int64, jobs []jobSpec, ops []poolOp, horizon float64, reference bool) poolRun {
	t.Helper()
	p, err := NewPool(machines, seed)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		p.scanMatch = matchReference
	}
	var run poolRun
	js := make([]*Job, len(jobs))
	for i, spec := range jobs {
		j := &Job{Name: spec.name, RequiresMB: spec.mb, RequiresArch: spec.arch, Requeue: spec.requeue}
		j.OnStart = func(a Alloc) {
			run.log = append(run.log, poolEvent{"start", j.Name, a.Machine.Name, a.Start})
		}
		j.OnEvict = func(at float64) { run.log = append(run.log, poolEvent{"evict", j.Name, "", at}) }
		j.OnComplete = func(at float64) { run.log = append(run.log, poolEvent{"complete", j.Name, "", at}) }
		js[i] = j
	}
	for _, op := range ops {
		p.Clock().Schedule(op.at, func() {
			j := js[op.job]
			var err error
			switch op.kind {
			case "submit":
				err = p.Submit(j)
			case "remove":
				err = p.Remove(j)
			case "complete":
				err = p.Complete(j)
			}
			if err != nil {
				run.log = append(run.log, poolEvent{op.kind + " failed", j.Name, "", p.Clock().Now()})
			}
		})
	}
	p.RunUntil(horizon)
	run.starts, run.evictions, run.queueLen = p.Starts, p.Evictions, p.QueueLen()
	for _, j := range js {
		run.states = append(run.states, j.State())
	}
	return run
}

// randomScript draws a pool of machines with memory and architecture
// classes, jobs that require them, and a script of Submit, Remove and
// Complete calls; some jobs requeue after eviction.
func randomScript(r *rand.Rand) ([]Machine, []jobSpec, []poolOp, float64) {
	mems := []int{256, 512, 1024, 2048}
	arches := []string{"x86", "sparc", "ppc"}
	law := func(mean float64) dist.Distribution {
		if r.Intn(2) == 0 {
			return dist.NewExponential(1 / mean)
		}
		return dist.NewWeibull(0.5+2*r.Float64(), mean)
	}
	// Up to 150 machines, so the free set spans several words.
	machines := make([]Machine, 1+r.Intn(150))
	for i := range machines {
		machines[i] = Machine{
			Name:          fmt.Sprintf("m%03d", i),
			MemoryMB:      mems[r.Intn(len(mems))],
			Arch:          arches[r.Intn(len(arches))],
			Idle:          law(500 + 4000*r.Float64()),
			Busy:          law(200 + 2000*r.Float64()),
			InitiallyBusy: r.Intn(3) == 0,
		}
	}
	jobs := make([]jobSpec, 1+r.Intn(2*len(machines)))
	for i := range jobs {
		spec := jobSpec{name: fmt.Sprintf("j%03d", i), requeue: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			spec.mb = []int{512, 1024, 2048, 4096}[r.Intn(4)]
		}
		if r.Intn(2) == 0 {
			spec.arch = []string{"x86", "sparc", "ppc", "mips"}[r.Intn(4)]
		}
		jobs[i] = spec
	}
	horizon := 20000 + 30000*r.Float64()
	ops := make([]poolOp, 4*len(jobs))
	for i := range ops {
		kind := "submit"
		switch x := r.Intn(10); {
		case x >= 8:
			kind = "complete"
		case x >= 6:
			kind = "remove"
		}
		// A third of the calls land at t = 0, before any machine has
		// changed state.
		at := 0.0
		if r.Intn(3) != 0 {
			at = horizon * r.Float64()
		}
		ops[i] = poolOp{at: at, kind: kind, job: r.Intn(len(jobs))}
	}
	return machines, jobs, ops, horizon
}

// TestMatchEquivalentToReference drives a pool with the free-machine
// set and one with the full-scan reference through the same seeded
// scripts: every placement (job, machine, virtual time), eviction and
// completion must agree, as must the counters and final job states.
func TestMatchEquivalentToReference(t *testing.T) {
	var starts, evictions, failed int
	for seed := int64(1); seed <= 40; seed++ {
		machines, jobs, ops, horizon := randomScript(rand.New(rand.NewSource(seed)))
		want := runScript(t, machines, seed, jobs, ops, horizon, true)
		got := runScript(t, machines, seed, jobs, ops, horizon, false)
		if i := firstDivergence(got.log, want.log); i >= 0 {
			t.Fatalf("seed %d (%d machines, %d jobs): logs diverge at event %d of %d/%d:\n  free set:  %s\n  reference: %s",
				seed, len(machines), len(jobs), i, len(got.log), len(want.log), eventAt(got.log, i), eventAt(want.log, i))
		}
		if got.starts != want.starts || got.evictions != want.evictions || got.queueLen != want.queueLen {
			t.Fatalf("seed %d: starts/evictions/queue %d/%d/%d, reference %d/%d/%d",
				seed, got.starts, got.evictions, got.queueLen, want.starts, want.evictions, want.queueLen)
		}
		if !slices.Equal(got.states, want.states) {
			t.Fatalf("seed %d: job states %v, reference %v", seed, got.states, want.states)
		}
		starts += want.starts
		evictions += want.evictions
		for _, e := range want.log {
			if e.kind != "start" && e.kind != "evict" && e.kind != "complete" {
				failed++
			}
		}
	}
	t.Logf("%d starts, %d evictions, %d refused calls", starts, evictions, failed)
	// The scripts must exercise the pool, not agree vacuously.
	if starts < 1000 || evictions < 500 || failed == 0 {
		t.Errorf("scripts too tame: %d starts, %d evictions, %d refused calls", starts, evictions, failed)
	}
}

func firstDivergence(a, b []poolEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func eventAt(log []poolEvent, i int) string {
	if i >= len(log) {
		return "(end of log)"
	}
	return fmt.Sprintf("%+v", log[i])
}

// TestRequeuedJobWaitsForNextMatch pins the path where reclaimMachine
// requeues a job without calling match: the job stays queued although
// another machine is free, and at the next match (the reclaimed
// machine going idle again) it takes the lowest-index free machine,
// not the machine that just became idle.
func TestRequeuedJobWaitsForNextMatch(t *testing.T) {
	long := testMachine("m0", 1024)
	long.Idle = tightDist(5000)
	machines := []Machine{long, testMachine("m1", 1024)}
	for _, reference := range []bool{true, false} {
		p, err := NewPool(machines, 3)
		if err != nil {
			t.Fatal(err)
		}
		if reference {
			p.scanMatch = matchReference
		}
		var hosts []string
		var starts []float64
		blocker := &Job{Name: "blocker"}
		j := &Job{Name: "monitor", Requeue: true, OnStart: func(a Alloc) {
			hosts = append(hosts, a.Machine.Name)
			starts = append(starts, a.Start)
		}}
		for _, job := range []*Job{blocker, j} {
			if err := p.Submit(job); err != nil {
				t.Fatal(err)
			}
		}
		// blocker holds m0, the monitor m1; freeing m0 at t = 10 matches
		// nothing because the queue is empty.
		p.Clock().Schedule(10, func() {
			if err := p.Complete(blocker); err != nil {
				t.Error(err)
			}
		})
		// m1's owner returns near t = 1000 and evicts the monitor; m1
		// idles again near t = 1500.
		p.RunUntil(1200)
		if j.State() != JobQueued || p.QueueLen() != 1 || p.Evictions != 1 {
			t.Fatalf("reference=%v: after the reclaim: state %v, queue %d, evictions %d; want queued, 1, 1",
				reference, j.State(), p.QueueLen(), p.Evictions)
		}
		p.RunUntil(2000)
		if !slices.Equal(hosts, []string{"m1", "m0"}) {
			t.Fatalf("reference=%v: monitor ran on %v, want [m1 m0]", reference, hosts)
		}
		if starts[1] < 1300 || starts[1] > 1700 {
			t.Errorf("reference=%v: requeued monitor started at %g, want at m1's next idle (≈1500)", reference, starts[1])
		}
	}
}
