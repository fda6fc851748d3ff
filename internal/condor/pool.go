package condor

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/cycleharvest/ckptsched/internal/dist"
)

// Machine describes one desktop workstation contributed to the pool.
type Machine struct {
	// Name uniquely identifies the machine.
	Name string
	// MemoryMB is installed memory; jobs state a minimum (the paper's
	// test application needs 512 MB machines for its 500 MB images).
	MemoryMB int
	// Arch is the instruction-set label used in matchmaking.
	Arch string
	// Idle is the distribution of harvestable idle-period durations —
	// the availability law the paper models.
	Idle dist.Distribution
	// Busy is the distribution of owner-active periods between idle
	// periods.
	Busy dist.Distribution
	// InitiallyBusy starts the machine in an owner-active period.
	InitiallyBusy bool
	// DiurnalAmplitude, when positive, modulates idle durations by
	// time of day: periods beginning during working hours (09:00-17:00
	// on virtual weekdays, with virtual time 0 taken as Monday 00:00)
	// are scaled by 1/(1+A) and periods beginning at night or on
	// weekends by (1+A). Real desktop pools show exactly this
	// nonstationarity; it makes the recorded traces violate the
	// i.i.d. assumption the fitters make, the way measured data does.
	DiurnalAmplitude float64
}

// workingHours reports whether virtual time t falls in 09:00-17:00 on
// a weekday, with t = 0 anchored to Monday 00:00.
func workingHours(t float64) bool {
	const day = 24 * 3600
	weekSec := math.Mod(t, 7*day)
	if weekSec < 0 {
		weekSec += 7 * day
	}
	if weekSec >= 5*day {
		return false // Saturday or Sunday
	}
	hour := math.Mod(weekSec, day) / 3600
	return hour >= 9 && hour < 17
}

// diurnalFactor scales an idle duration drawn at virtual time t.
func diurnalFactor(t, amplitude float64) float64 {
	if amplitude <= 0 {
		return 1
	}
	if workingHours(t) {
		return 1 / (1 + amplitude)
	}
	return 1 + amplitude
}

// JobState is the lifecycle of a submitted job.
type JobState int

// Job lifecycle states.
const (
	JobNew JobState = iota // created but never submitted
	JobQueued
	JobRunning
	JobEvicted   // terminated by owner reclamation (Vanilla universe)
	JobCompleted // finished voluntarily
	JobRemoved   // withdrawn by the submitter
)

func (s JobState) String() string {
	switch s {
	case JobNew:
		return "new"
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobEvicted:
		return "evicted"
	case JobCompleted:
		return "completed"
	case JobRemoved:
		return "removed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Alloc describes a job placement, passed to the job's OnStart hook.
type Alloc struct {
	// Machine is the hosting machine's specification.
	Machine Machine
	// Start is the virtual time the job began executing.
	Start float64
	// TElapsed is how long the machine had already been idle when the
	// job started — the paper's T_elapsed input to the first T_opt.
	TElapsed float64
}

// Job is a Vanilla-universe (terminate-on-eviction) job. Hooks are
// invoked from the pool's event loop; they may schedule clock events
// but must not block and must not call pool methods synchronously
// (defer pool calls with Clock().Schedule(0, …) to avoid reentering
// the matchmaker).
type Job struct {
	// Name identifies the job in logs.
	Name string
	// RequiresMB is the minimum machine memory (0 = any).
	RequiresMB int
	// RequiresArch restricts matchmaking to one architecture ("" =
	// any).
	RequiresArch string
	// Requeue resubmits the job automatically after eviction — how
	// the paper keeps its occupancy monitors permanently in the queue.
	Requeue bool
	// OnStart fires when the job begins executing on a machine.
	OnStart func(a Alloc)
	// OnEvict fires when the owner reclaims the machine; the job's
	// process is terminated at this instant.
	OnEvict func(at float64)
	// OnComplete fires when the job finishes voluntarily via
	// Pool.Complete.
	OnComplete func(at float64)

	state   JobState
	machine *machineState
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return j.state }

type machineState struct {
	spec      Machine
	index     int // declaration position; the machine's bit in Pool.free
	idle      bool
	idleSince float64
	running   *Job
}

// Pool is the matchmaker and event loop that binds machines and jobs.
type Pool struct {
	clock    *Clock
	rng      *rand.Rand
	machines []*machineState
	queue    []*Job
	// free holds, by declaration index, the machines that are idle and
	// unoccupied, and nfree counts them: the candidates match may
	// place a queued job on. becomeIdle, scheduleBusy, place and
	// Complete keep both exact.
	free  []uint64
	nfree int
	// scanMatch, when set, replaces match; the equivalence test sets it
	// to the full-scan reference matchmaker.
	scanMatch func(*Pool)

	// Evictions counts owner reclamations that terminated a job.
	Evictions int
	// Starts counts job placements.
	Starts int
}

// probeDraws is how many construction-time samples each idle/busy
// distribution must survive before NewPool accepts it.
const probeDraws = 8

// validateIntervals probes a machine's period distribution for
// degenerate draws. A zero-length or negative period would put two
// availability transitions at the same (or an earlier) instant,
// breaking the monotonicity every trace consumer assumes, so the pool
// rejects such distributions at construction with a descriptive error
// instead of generating a corrupt timeline. The probe uses its own RNG
// so the pool's event stream is untouched by validation.
func validateIntervals(machine, kind string, d dist.Distribution, probe *rand.Rand) error {
	for range probeDraws {
		v := d.Rand(probe)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("condor: machine %q: %s distribution %q drew a non-finite period (%g); availability intervals must be finite and strictly positive",
				machine, kind, d.Name(), v)
		}
		if v <= 0 {
			return fmt.Errorf("condor: machine %q: %s distribution %q drew a zero-length or negative period (%g); such intervals would make the availability timeline non-monotonic",
				machine, kind, d.Name(), v)
		}
	}
	return nil
}

// NewPool builds a pool over the given machines. Machine idle/busy
// processes are driven by rng (deterministic for a fixed seed).
func NewPool(machines []Machine, seed int64) (*Pool, error) {
	if len(machines) == 0 {
		return nil, errors.New("condor: pool needs at least one machine")
	}
	p := &Pool{
		clock: &Clock{},
		rng:   rand.New(rand.NewSource(seed)),
		free:  make([]uint64, (len(machines)+63)/64),
	}
	// Interval validation draws from a salted probe stream, never from
	// p.rng, so a pool built from valid machines is bit-identical to
	// one built before validation existed.
	probe := rand.New(rand.NewSource(seed ^ 0x70726f6265313233))
	seen := make(map[string]bool, len(machines))
	for _, m := range machines {
		if m.Name == "" {
			return nil, errors.New("condor: machine with empty name")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("condor: duplicate machine %q", m.Name)
		}
		seen[m.Name] = true
		if m.Idle == nil || m.Busy == nil {
			return nil, fmt.Errorf("condor: machine %q needs idle and busy distributions", m.Name)
		}
		if err := validateIntervals(m.Name, "idle", m.Idle, probe); err != nil {
			return nil, err
		}
		if err := validateIntervals(m.Name, "busy", m.Busy, probe); err != nil {
			return nil, err
		}
		ms := &machineState{spec: m, index: len(p.machines)}
		p.machines = append(p.machines, ms)
		if m.InitiallyBusy {
			p.scheduleBusy(ms, m.Busy.Rand(p.rng))
		} else {
			p.becomeIdle(ms)
		}
	}
	return p, nil
}

// Clock exposes the pool's virtual clock so jobs can schedule their
// own events (heartbeats, transfer completions).
func (p *Pool) Clock() *Clock { return p.clock }

// Machines returns the machine specifications.
func (p *Pool) Machines() []Machine {
	out := make([]Machine, len(p.machines))
	for i, ms := range p.machines {
		out[i] = ms.spec
	}
	return out
}

// Submit queues a job and attempts to place it immediately.
func (p *Pool) Submit(j *Job) error {
	if j == nil {
		return errors.New("condor: nil job")
	}
	if j.state == JobRunning || j.state == JobQueued {
		return fmt.Errorf("condor: job %q already submitted", j.Name)
	}
	j.state = JobQueued
	p.queue = append(p.queue, j)
	p.match()
	return nil
}

// Remove withdraws a queued job. Running jobs cannot be removed (use
// Complete).
func (p *Pool) Remove(j *Job) error {
	for i, q := range p.queue {
		if q == j {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			j.state = JobRemoved
			return nil
		}
	}
	return fmt.Errorf("condor: job %q not queued", j.Name)
}

// Complete marks a running job as voluntarily finished, freeing its
// machine for the next queued job. Test seam: the monitor's jobs run
// until reclaimed, so only the matchmaking tests (against the
// full-scan reference) finish jobs voluntarily.
func (p *Pool) Complete(j *Job) error {
	if j.state != JobRunning || j.machine == nil {
		return fmt.Errorf("condor: job %q is not running", j.Name)
	}
	ms := j.machine
	ms.running = nil
	if ms.idle {
		p.setFree(ms)
	}
	j.machine = nil
	j.state = JobCompleted
	if j.OnComplete != nil {
		j.OnComplete(p.clock.Now())
	}
	p.match()
	return nil
}

// QueueLen returns the number of jobs waiting for a machine. Test
// seam: the matchmaking tests compare it with the reference queue.
func (p *Pool) QueueLen() int { return len(p.queue) }

// RunUntil advances the pool's virtual time to t.
func (p *Pool) RunUntil(t float64) { p.clock.RunUntil(t) }

// matches reports whether machine m satisfies job j's requirements —
// the ClassAd-lite predicate.
func matches(m Machine, j *Job) bool {
	if j.RequiresMB > 0 && m.MemoryMB < j.RequiresMB {
		return false
	}
	if j.RequiresArch != "" && m.Arch != j.RequiresArch {
		return false
	}
	return true
}

// match places queued jobs on unoccupied idle machines (FIFO over the
// queue, first matching machine in declaration order). Only machines
// in the free set are tested, and the walk stops once the set is
// empty: every job after that point stays queued in order.
func (p *Pool) match() {
	if p.scanMatch != nil {
		p.scanMatch(p)
		return
	}
	if len(p.queue) == 0 || p.nfree == 0 {
		return
	}
	remaining := p.queue[:0]
	for i, j := range p.queue {
		if p.nfree == 0 {
			remaining = append(remaining, p.queue[i:]...)
			break
		}
		if ms := p.firstFree(j); ms != nil {
			p.place(j, ms)
		} else {
			remaining = append(remaining, j)
		}
	}
	p.queue = remaining
}

// firstFree returns the lowest-index free machine that matches j, or
// nil.
func (p *Pool) firstFree(j *Job) *machineState {
	for w, word := range p.free {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if ms := p.machines[w*64+b]; matches(ms.spec, j) {
				return ms
			}
		}
	}
	return nil
}

// setFree and clearFree move ms into and out of the free set; each is
// a no-op when the machine is already on that side.
func (p *Pool) setFree(ms *machineState) {
	w, bit := ms.index/64, uint64(1)<<(ms.index%64)
	if p.free[w]&bit == 0 {
		p.free[w] |= bit
		p.nfree++
	}
}

func (p *Pool) clearFree(ms *machineState) {
	w, bit := ms.index/64, uint64(1)<<(ms.index%64)
	if p.free[w]&bit != 0 {
		p.free[w] &^= bit
		p.nfree--
	}
}

func (p *Pool) place(j *Job, ms *machineState) {
	ms.running = j
	p.clearFree(ms)
	j.machine = ms
	j.state = JobRunning
	p.Starts++
	if j.OnStart != nil {
		j.OnStart(Alloc{
			Machine:  ms.spec,
			Start:    p.clock.Now(),
			TElapsed: p.clock.Now() - ms.idleSince,
		})
	}
}

// becomeIdle transitions a machine into a fresh idle period and draws
// its duration (diurnally modulated when the machine asks for it).
func (p *Pool) becomeIdle(ms *machineState) {
	ms.idle = true
	if ms.running == nil {
		p.setFree(ms)
	}
	ms.idleSince = p.clock.Now()
	d := ms.spec.Idle.Rand(p.rng) * diurnalFactor(p.clock.Now(), ms.spec.DiurnalAmplitude)
	p.clock.Schedule(d, func() { p.reclaimMachine(ms) })
	p.match()
}

// scheduleBusy keeps the machine owner-active for d seconds.
func (p *Pool) scheduleBusy(ms *machineState, d float64) {
	ms.idle = false
	p.clearFree(ms)
	p.clock.Schedule(d, func() { p.becomeIdle(ms) })
}

// reclaimMachine is the owner touching the keyboard: any guest job is
// terminated (Vanilla universe) and the machine goes busy.
func (p *Pool) reclaimMachine(ms *machineState) {
	if j := ms.running; j != nil {
		ms.running = nil
		j.machine = nil
		j.state = JobEvicted
		p.Evictions++
		if j.OnEvict != nil {
			j.OnEvict(p.clock.Now())
		}
		if j.Requeue {
			j.state = JobQueued
			p.queue = append(p.queue, j)
		}
	}
	p.scheduleBusy(ms, ms.spec.Busy.Rand(p.rng))
}
