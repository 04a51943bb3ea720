package kernel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/sim"
)

// lockInterval is the test lock's poll interval, the messenger's.
const lockInterval = 150

// flagLock is a simulated spin lock on a Go flag. Unparked, its acquire
// is the spinning loop every flag spin ran before sim.Thread.SpinWhile,
// kept verbatim as the reference SpinWhile must be indistinguishable
// from; parked, it is SpinWhile, and its release disturbs the waiters.
type flagLock struct {
	parks bool
	held  bool
	wait  sim.Waiters
}

func (l *flagLock) lock(th *sim.Thread) {
	if l.parks {
		th.SpinWhile("lock:test", &l.wait, lockInterval, func() bool { return l.held })
	} else {
		for l.held {
			th.Advance(lockInterval)
			th.YieldPoint()
		}
	}
	l.held = true
}

func (l *flagLock) unlock() {
	if l.parks {
		l.wait.Disturb()
	}
	l.held = false
}

// lockRig is one fresh machine with four x86 cores, a lock, a bare holder
// thread that takes it at clock 0, and the scheduled tasks that wait for
// it.
type lockRig struct {
	ctx   *Context
	s     *Scheduler
	v     *Vanilla
	lock  flagLock
	tasks []*Task
	// acquired are the clocks each task took the lock at, entered the
	// clocks it first asked for it at.
	acquired, entered map[string][]sim.Cycles
	ends              map[string]sim.Cycles
	errs              []*error
}

func newLockRig(t *testing.T, quantum int64, parks bool) *lockRig {
	t.Helper()
	ctx := schedContext(t, 4, 1)
	return &lockRig{ctx: ctx, s: NewScheduler(ctx, SchedTimeSlice, quantum), v: NewVanilla(ctx),
		lock:     flagLock{parks: parks},
		acquired: map[string][]sim.Cycles{}, entered: map[string][]sim.Cycles{}, ends: map[string]sim.Cycles{}}
}

// holder takes the lock at clock 0 on a bare thread and releases it in a
// segment that starts at release.
func (r *lockRig) holder(name string, release sim.Cycles) {
	r.ctx.Plat.Engine.Spawn(name, 0, func(th *sim.Thread) {
		r.lock.lock(th)
		th.AdvanceTo(release)
		th.YieldPoint()
		r.lock.unlock()
		r.ends[name] = th.Now()
	})
}

// waiterOpts vary a waiter: a tenant's task, or one that waits with
// preemption disabled.
type waiterOpts struct {
	tenant, noPreempt bool
}

// waiter starts a scheduled task on x86 core at clock start that takes
// the lock, computes for a while and releases it in a later segment.
func (r *lockRig) waiter(name string, core int, start sim.Cycles, o waiterOpts) {
	errp := new(error)
	r.errs = append(r.errs, errp)
	r.ctx.Plat.Engine.Spawn(name, start, func(th *sim.Thread) {
		pt := r.ctx.Plat.NewPort(mem.NodeX86, core, th)
		proc, err := r.v.CreateProcess(pt, mem.NodeX86)
		if err != nil {
			*errp = err
			return
		}
		if o.tenant {
			proc.Ten = cap.NewNamespace().NewTenant("t0", cap.Budget{})
		}
		t := NewTaskOn(name, proc, r.v, r.ctx, th, core)
		r.tasks = append(r.tasks, t)
		r.s.Attach(t)
		t.Compute(3000)
		if o.noPreempt {
			th.DisablePreempt()
		}
		r.entered[name] = append(r.entered[name], th.Now())
		r.lock.lock(th)
		r.acquired[name] = append(r.acquired[name], th.Now())
		t.Compute(2000)
		th.YieldPoint() // the release is a later segment: the others poll on
		r.lock.unlock()
		if o.noPreempt {
			th.EnablePreempt()
		}
		t.Compute(1000)
		r.ends[name] = th.Now()
		r.s.Detach(t)
	})
}

// intruder starts a scheduled task that computes on x86 core from clock
// start: an enqueue on that CPU if a waiter holds it, which then hands it
// the CPU at its slice's expiry.
func (r *lockRig) intruder(name string, core int, start sim.Cycles) {
	errp := new(error)
	r.errs = append(r.errs, errp)
	spawnScheduled(r.ctx, r.s, r.v, name, core, start, func(t *Task) error {
		r.ends[name+" dispatched"] = t.Th.Now()
		r.tasks = append(r.tasks, t)
		t.Compute(20_000)
		r.ends[name] = t.Th.Now()
		return nil
	}, errp)
}

// dump renders every number the comparison holds.
func (r *lockRig) dump() string {
	var b strings.Builder
	for _, t := range r.tasks {
		fmt.Fprintf(&b, "%s entered %v acquired %v ends %d now %d slice %d/%d dispatched %d %+v\n",
			t.Name, r.entered[t.Name], r.acquired[t.Name], r.ends[t.Name], t.Th.Now(),
			t.sliceStart, t.sliceInstr, t.dispatchAt, t.Stats)
	}
	fmt.Fprintf(&b, "holder ends %d\n", r.ends["holder"])
	for c := 0; c < r.s.Cores(mem.NodeX86); c++ {
		cpu := r.s.CPUOf(mem.NodeX86, c)
		fmt.Fprintf(&b, "core%d dispatches=%d preemptions=%d busy=%d\n", c, cpu.Dispatches, cpu.Preemptions, cpu.Busy)
	}
	e := r.ctx.Plat.Engine
	fmt.Fprintf(&b, "segments %d cycles %d max %d\n", e.Stats.SerialSegments, e.Stats.SerialCycles, e.MaxTime())
	return b.String()
}

// lockTies are clocks from undisturbed reference runs: poll, a yield point
// of the first waiter's loop at or after 300 000; expiry, the yield point
// at which its slice expires once an intruder queues on its CPU at
// 151 000, where it yields the CPU.
type lockTies struct{ poll, expiry sim.Cycles }

// lockScenario is one way a parked lock spin ends.
type lockScenario struct {
	name    string
	quantum int64
	// noPark marks a waiter that must not park; queued one that must park
	// while a task is queued on its CPU (sim.EngineStats.TimedParks).
	noPark, queued bool
	spawn          func(r *lockRig, tie lockTies)
}

var lockScenarios = []lockScenario{
	{name: "one waiter", spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
	}},
	{name: "three waiters released once", spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.waiter("w2", 2, 1000, waiterOpts{})
		r.waiter("w3", 3, 1000, waiterOpts{})
	}},
	// The release's segment ties with a loop yield point. A lower-ID
	// holder releases before the waiter's yield point at its clock, which
	// then finds the lock free; a higher-ID one after it, so the waiter
	// polls once more.
	{name: "release on a yield point, lower ID", spawn: func(r *lockRig, tie lockTies) {
		r.holder("holder", tie.poll)
		r.waiter("w1", 1, 1000, waiterOpts{})
	}},
	{name: "release on a yield point, higher ID", spawn: func(r *lockRig, tie lockTies) {
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.holder("holder", tie.poll)
	}},
	// The enqueue falls between two of the parked waiter's slice restarts,
	// so the replayed slice decides when its hook preempts it.
	{name: "enqueue on the waiter's CPU", quantum: 500, queued: true, spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.intruder("intruder", 1, 151_000)
	}},
	{name: "Engine.Wake of the waiter", spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.ctx.Plat.Engine.Spawn("waker", 150_000, func(th *sim.Thread) {
			r.ctx.Plat.Engine.Wake(r.tasks[0].Th, th.Now())
		})
	}},
	{name: "preemption disabled", spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{noPreempt: true})
	}},
	// A 100-instruction quantum's cycle backstop is 400 cycles: the park
	// crosses it hundreds of times, each a slice restart the replay finds.
	{name: "slice backstop crossings", quantum: 100, spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.waiter("w2", 2, 1000, waiterOpts{})
	}},
	{name: "tenant task", noPark: true, spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{tenant: true})
	}},
	// With a task queued on its CPU the waiter's hook does nothing until
	// its slice expires and then yields the CPU, so its park ends by
	// itself at the expiry yield point (sim.Spin.Bound). The intruder
	// computes for several slices, so the two take turns.
	{name: "queued task, cycle backstop", queued: true, spawn: func(r *lockRig, _ lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.intruder("intruder", 1, 151_000)
	}},
	{name: "queued task, release before expiry", queued: true, spawn: func(r *lockRig, tie lockTies) {
		r.holder("holder", tie.expiry-2000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.intruder("intruder", 1, 151_000)
	}},
	// The release's segment ties with the expiry yield point: a lower-ID
	// holder releases before it, a higher-ID one after the waiter yielded.
	{name: "queued task, release tied with expiry, lower ID", queued: true, spawn: func(r *lockRig, tie lockTies) {
		r.holder("holder", tie.expiry)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.intruder("intruder", 1, 151_000)
	}},
	{name: "queued task, release tied with expiry, higher ID", queued: true, spawn: func(r *lockRig, tie lockTies) {
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.intruder("intruder", 1, 151_000)
		r.holder("holder", tie.expiry)
	}},
	{name: "queued task, second enqueue while parked", queued: true, spawn: func(r *lockRig, tie lockTies) {
		r.holder("holder", 300_000)
		r.waiter("w1", 1, 1000, waiterOpts{})
		r.intruder("intruder", 1, 151_000)
		r.intruder("intruder2", 1, tie.expiry-2000)
	}},
}

// runLock runs scenario sc with the lock parking or spinning.
func runLock(t *testing.T, sc lockScenario, parks bool, tie lockTies) *lockRig {
	t.Helper()
	q := sc.quantum
	if q == 0 {
		q = 2000
	}
	r := newLockRig(t, q, parks)
	sc.spawn(r, tie)
	if err := r.ctx.Plat.Engine.Run(); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	for _, err := range r.errs {
		if *err != nil {
			t.Fatalf("%s: %v", sc.name, *err)
		}
	}
	return r
}

// TestSpinWhileMatchesSpinning runs each scenario on fresh machines with
// the lock spinning and parking, and requires the same clocks, task and
// CPU counters, slice fields and engine segment accounting from both —
// and that the waiters parked, except a tenant's, and parked with a task
// queued on their CPU where the scenario queues one.
func TestSpinWhileMatchesSpinning(t *testing.T) {
	// The waiter's loop yield points are at its entry clock plus multiples
	// of the interval; the same in every scenario up to the release.
	ref := runLock(t, lockScenarios[0], false, lockTies{})
	entry := ref.entered["w1"][0]
	tie := lockTies{poll: entry + (300_000-entry+lockInterval-1)/lockInterval*lockInterval}
	i := slices.IndexFunc(lockScenarios, func(sc lockScenario) bool { return sc.name == "queued task, cycle backstop" })
	queued := runLock(t, lockScenarios[i], false, tie)
	if tie.expiry = queued.ends["intruder dispatched"]; tie.expiry-2000 <= 151_000 {
		t.Fatalf("the first expiry with a task queued is at %d: no room for an event before it", tie.expiry)
	}
	for _, sc := range lockScenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := runLock(t, sc, false, tie)
			got := runLock(t, sc, true, tie)
			if g, w := got.dump(), want.dump(); g != w {
				t.Fatalf("SpinWhile diverges from the spinning loop\n--- SpinWhile\n%s--- spinning\n%s", g, w)
			}
			es := got.ctx.Plat.Engine.Stats
			if es.LockYields == 0 {
				t.Fatal("no waiter spun: the scenario tests nothing")
			}
			if parked := es.LockReplayed > 0; parked == sc.noPark {
				t.Fatalf("%d lock-spin yield points replayed, %d run", es.LockReplayed, es.LockYields)
			}
			if sc.queued && es.TimedParks == 0 {
				t.Fatal("no waiter parked while a task was queued on its CPU")
			}
		})
	}
}
