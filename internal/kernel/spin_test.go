package kernel

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// spinRef is the worker wait loop as the redis workers ran it before
// SpinWait — a probe bracketed by yield points, then the idle branch's
// poll interval and yield point — kept verbatim as the reference SpinWait
// must be indistinguishable from.
func spinRef(t *Task, addrs []pgtable.VirtAddr, vals []uint64, interval sim.Cycles, idle func([]uint64) bool) error {
	for {
		t.Th.YieldPoint()
		for i, a := range addrs {
			v, err := t.Load(a, 8)
			if err != nil {
				t.Th.YieldPoint()
				return err
			}
			vals[i] = v
		}
		t.Th.YieldPoint()
		if !idle(vals) {
			return nil
		}
		t.Th.Advance(interval)
		t.Th.YieldPoint()
	}
}

type waitFunc func(t *Task, addrs []pgtable.VirtAddr, vals []uint64, interval sim.Cycles, idle func([]uint64) bool) error

// spinIdle is a worker's request-ring test: empty ring, no stop.
func spinIdle(v []uint64) bool { return v[0] == v[1] && v[2] == 0 }

// spinRig is one fresh machine with a scheduled poller on x86 core 0
// waiting on a ring's head and tail words and a stop flag, plus whatever
// disturbs it. The per-node L3 is 64 KiB and 4-way, so that a neighbour
// core evicts a line with a handful of conflicting reads.
type spinRig struct {
	ctx      *Context
	s        *Scheduler
	v        *Vanilla
	poller   *Task
	interval sim.Cycles // the poller's poll interval
	base     pgtable.VirtAddr
	words    [3]mem.PhysAddr // head, tail, stop
	ends     map[string]sim.Cycles
	// clocks are the clocks of the poller's loop yield points, recorded
	// by the reference loop.
	clocks []sim.Cycles
	// returns are the clocks the poller's waits returned at.
	returns []sim.Cycles
	served  int
	errs    []*error
}

// errp returns a fresh slot for a task's error.
func (r *spinRig) errp() *error {
	r.errs = append(r.errs, new(error))
	return r.errs[len(r.errs)-1]
}

const spinL3Stride = 64 << 10 / 4 // one way of the test L3: lines this far apart share a set

// newSpinRig builds the rig; l1 > 0 replaces every core's L1 hit latency.
func newSpinRig(t *testing.T, quantum int64, l1 sim.Cycles) *spinRig {
	t.Helper()
	cfg := hw.DefaultConfig(mem.Separated)
	cfg.Cache.Nodes[0].Cores = 2
	for n := range cfg.Cache.Nodes {
		cfg.Cache.Nodes[n].L3 = cache.LevelConfig{Size: 64 << 10, Ways: 4}
		if l1 > 0 {
			cfg.Cache.Nodes[n].Lat.L1 = l1
		}
	}
	plat := hw.NewPlatform(cfg)
	x86k, err := Boot(plat, mem.NodeX86, pgtable.X86Format{}, BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	armk, err := Boot(plat, mem.NodeArm, pgtable.Arm64Format{}, BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Plat: plat, Kernels: [2]*Kernel{x86k, armk}}
	return &spinRig{ctx: ctx, s: NewScheduler(ctx, SchedTimeSlice, quantum), v: NewVanilla(ctx),
		interval: 300, ends: map[string]sim.Cycles{}, returns: make([]sim.Cycles, 0, 256)}
}

// spawnPoller starts the poller: it faults the three words in, then waits
// with wait and serves (advances tail to head) until the stop flag is set.
func (r *spinRig) spawnPoller(wait waitFunc) {
	var err error
	spawnScheduled(r.ctx, r.s, r.v, "poller", 0, 0, func(t *Task) error {
		r.poller = t
		if r.base, err = t.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "ring"); err != nil {
			return err
		}
		addrs := []pgtable.VirtAddr{r.base, r.base + 64, r.base + 128}
		for i, a := range addrs {
			if err := t.Store(a, 8, 0); err != nil {
				return err
			}
			if r.words[i], err = t.translate(a, false); err != nil {
				return err
			}
		}
		vals := make([]uint64, 3)
		for {
			if err := wait(t, addrs, vals, r.interval, spinIdle); err != nil {
				return err
			}
			r.returns = append(r.returns, t.Th.Now())
			if vals[2] != 0 {
				r.ends["poller"] = t.Th.Now()
				return nil
			}
			t.Compute(200)
			if err := t.Store(addrs[1], 8, vals[0]); err != nil {
				return err
			}
			r.served++
		}
	}, r.errp())
}

// recordingRef is spinRef, recording the clock of every loop yield point.
func (r *spinRig) recordingRef(t *Task, addrs []pgtable.VirtAddr, vals []uint64, interval sim.Cycles, idle func([]uint64) bool) error {
	for {
		t.Th.YieldPoint()
		r.clocks = append(r.clocks, t.Th.Now())
		for i, a := range addrs {
			v, err := t.Load(a, 8)
			if err != nil {
				t.Th.YieldPoint()
				return err
			}
			vals[i] = v
		}
		t.Th.YieldPoint()
		r.clocks = append(r.clocks, t.Th.Now())
		if !idle(vals) {
			return nil
		}
		t.Th.Advance(interval)
		t.Th.YieldPoint()
		r.clocks = append(r.clocks, t.Th.Now())
	}
}

// raw runs f at clock at on a bare thread with a port on (node, core),
// between yield points like any shared-memory access.
func (r *spinRig) raw(name string, node mem.NodeID, core int, at sim.Cycles, f func(pt *hw.Port)) {
	r.ctx.Plat.Engine.Spawn(name, at, func(th *sim.Thread) {
		th.YieldPoint()
		f(r.ctx.Plat.NewPort(node, core, th))
		th.YieldPoint()
		r.ends[name] = th.Now()
	})
}

// queue starts a scheduled task on x86 core 0, the poller's, at clock
// at: it queues behind the poller, and once dispatched stores over 8 KiB
// through the poller's L1D and computes for compute instructions.
func (r *spinRig) queue(name string, at sim.Cycles, compute int64) {
	spawnScheduled(r.ctx, r.s, r.v, name, 0, at, func(t *Task) error {
		r.ends[name+" dispatched"] = t.Th.Now()
		buf, err := t.Proc.Mmap(8<<10, VMARead|VMAWrite, "buf")
		if err != nil {
			return err
		}
		for off := pgtable.VirtAddr(0); off < 8<<10; off += 64 {
			if err := t.Store(buf+off, 8, uint64(off)); err != nil {
				return err
			}
		}
		t.Compute(compute)
		r.ends[name] = t.Th.Now()
		return nil
	}, r.errp())
}

// write64 stores v into word i at clock at from (node, core).
func (r *spinRig) write64(name string, node mem.NodeID, core int, at sim.Cycles, i int, v uint64) {
	r.raw(name, node, core, at, func(pt *hw.Port) { pt.Write64(r.words[i], v) })
}

// dump renders every number the comparison holds.
func (r *spinRig) dump() string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(r.ends)) {
		fmt.Fprintf(&b, "%s at %d\n", name, r.ends[name])
	}
	fmt.Fprintf(&b, "served %d, waits returned at %v\npoller %+v\n", r.served, r.returns, r.poller.Stats)
	h := r.ctx.Plat.Caches
	for n := mem.NodeID(0); n < 2; n++ {
		fmt.Fprintf(&b, "%v %+v\n", n, h.Stats(n))
		for c := 0; c < r.s.Cores(n); c++ {
			cpu := r.s.CPUOf(n, c)
			fmt.Fprintf(&b, "%v core%d %+v dispatches=%d preemptions=%d busy=%d\n",
				n, c, h.CoreStats(n, c), cpu.Dispatches, cpu.Preemptions, cpu.Busy)
		}
	}
	es := r.ctx.Plat.Engine.Stats
	fmt.Fprintf(&b, "segments %d cycles %d max %d\n", es.SerialSegments, es.SerialCycles, r.ctx.Plat.Engine.MaxTime())
	return b.String()
}

// spinTies are clocks of the poller's idle loop: a probe's closing yield
// point, and a poll's yield point (which shares its clock with the next
// iteration's first); and expiry, the yield point at which its slice
// expires once a task queues on its CPU at 400 000 (queue), where it
// yields the CPU.
type spinTies struct{ probe, poll, expiry sim.Cycles }

// spinScenario is one disturbing event: spawn its threads on r, before the
// poller's (before) and after it (spawn). quantum, l1 and interval, when
// set, replace the scheduler quantum, the L1 hit latency and the poll
// interval.
type spinScenario struct {
	name          string
	quantum       int64
	l1, interval  sim.Cycles
	before, spawn func(r *spinRig, tie spinTies)
}

var spinScenarios = []spinScenario{
	{name: "same-node write", spawn: func(r *spinRig, _ spinTies) {
		r.write64("writer", mem.NodeX86, 1, 400_000, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "cross-node write", spawn: func(r *spinRig, _ spinTies) {
		r.write64("writer", mem.NodeArm, 0, 400_000, 0, 1)
		r.write64("stopper", mem.NodeArm, 0, 900_000, 2, 1)
	}},
	{name: "L3 eviction by a neighbour core", spawn: func(r *spinRig, _ spinTies) {
		r.raw("evictor", mem.NodeX86, 1, 400_000, func(pt *hw.Port) {
			for k := 1; k <= 8; k++ {
				pt.Read64(r.words[0] + mem.PhysAddr(k*spinL3Stride))
			}
		})
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "enqueue on the poller's CPU", quantum: 500, spawn: func(r *spinRig, _ spinTies) {
		r.queue("intruder", 400_000, 5000)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	{name: "TLB shootdown", spawn: func(r *spinRig, _ spinTies) {
		r.ctx.Plat.Engine.Spawn("shootdown", 400_000, func(th *sim.Thread) {
			th.YieldPoint()
			r.poller.Proc.FlushTLB(mem.NodeX86, r.base)
			th.YieldPoint()
			r.ends["shootdown"] = th.Now()
		})
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "stop flag", spawn: func(r *spinRig, _ spinTies) {
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	// The write's segment ties with a loop yield point. A lower-ID writer
	// runs before the loop's yield points at its clock, so the loop resumes
	// at the first of them: the poll's (the probe after it sees the write)
	// or the probe's. A higher-ID writer runs after them: at the poll's
	// clock, the next probe has already read the ring.
	{name: "clock tie at the poll, lower ID", before: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.poll, 0, 1)
	}, spawn: func(r *spinRig, _ spinTies) {
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "clock tie at the poll, higher ID", spawn: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.poll, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "clock tie at the probe, lower ID", before: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.probe, 0, 1)
	}, spawn: func(r *spinRig, _ spinTies) {
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	// A task queued on the poller's CPU: the poller's hook does nothing
	// until its slice expires and then yields the CPU, so its park ends by
	// itself at the expiry yield point (sim.Spin.Bound). The queued task
	// computes for several slices, so the two take turns.
	{name: "queued task, cycle backstop", spawn: func(r *spinRig, _ spinTies) {
		r.queue("intruder", 400_000, 20_000)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	// 1-cycle L1 hits and a 1-cycle poll retire 3 loads per 4 cycles, so
	// the instruction quantum expires before the cycle backstop of 4
	// cycles per quantum instruction; with 4-cycle hits no probe loop
	// reaches it first.
	{name: "queued task, instruction quantum", quantum: 300, l1: 1, interval: 1, spawn: func(r *spinRig, _ spinTies) {
		r.queue("intruder", 400_000, 5000)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	{name: "queued task, ring write before expiry", spawn: func(r *spinRig, tie spinTies) {
		r.queue("intruder", 400_000, 20_000)
		r.write64("writer", mem.NodeX86, 1, tie.expiry-2000, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	// The write's segment ties with the expiry yield point: a lower-ID
	// writer runs before it, a higher-ID one after the poller yielded.
	{name: "queued task, write tied with expiry, lower ID", before: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.expiry, 0, 1)
	}, spawn: func(r *spinRig, _ spinTies) {
		r.queue("intruder", 400_000, 20_000)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	{name: "queued task, write tied with expiry, higher ID", spawn: func(r *spinRig, tie spinTies) {
		r.queue("intruder", 400_000, 20_000)
		r.write64("writer", mem.NodeX86, 1, tie.expiry, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	{name: "queued task, second enqueue while parked", spawn: func(r *spinRig, tie spinTies) {
		r.queue("intruder", 400_000, 20_000)
		r.queue("intruder2", tie.expiry-2000, 5000)
		r.write64("stopper", mem.NodeX86, 1, 2_000_000, 2, 1)
	}},
	{name: "queued task, stop flag at expiry", spawn: func(r *spinRig, tie spinTies) {
		r.queue("intruder", 400_000, 20_000)
		r.write64("stopper", mem.NodeX86, 1, tie.expiry, 2, 1)
	}},
}

// spinScenarioNamed returns the scenario called name.
func spinScenarioNamed(name string) spinScenario {
	i := slices.IndexFunc(spinScenarios, func(sc spinScenario) bool { return sc.name == name })
	return spinScenarios[i]
}

// runSpin runs scenario sc with the poller waiting through wait and
// returns the rig after the run.
func runSpin(t *testing.T, sc spinScenario, wait waitFunc, tie spinTies) *spinRig {
	t.Helper()
	q := sc.quantum
	if q == 0 {
		q = 2000
	}
	r := newSpinRig(t, q, sc.l1)
	if sc.interval > 0 {
		r.interval = sc.interval
	}
	if sc.before != nil {
		sc.before(r, tie)
	}
	if wait == nil {
		wait = r.recordingRef
	}
	r.spawnPoller(wait)
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

// TestSpinWaitMatchesSpinning runs each disturbing event on fresh machines
// with the poller in the reference loop and in SpinWait, and requires the
// same clocks, task, cache and CPU counters and engine segment accounting
// from both — and that SpinWait actually parked, with a task queued on its
// CPU too if the scenario has one.
func TestSpinWaitMatchesSpinning(t *testing.T) {
	// Tie clocks: the loop's yield points once it has long been idle, from
	// an undisturbed reference run (the poller's clocks before any event
	// are the same in every scenario), and the first expiry with a task
	// queued, where the reference poller hands that task its CPU.
	idle := runSpin(t, spinScenarioNamed("stop flag"), nil, spinTies{})
	var tie spinTies
	for i := 0; i+2 < len(idle.clocks); i += 3 {
		if idle.clocks[i] >= 400_000 {
			tie = spinTies{probe: idle.clocks[i+1], poll: idle.clocks[i+2]}
			break
		}
	}
	queued := runSpin(t, spinScenarioNamed("queued task, cycle backstop"), nil, spinTies{})
	tie.expiry = queued.ends["intruder dispatched"]
	if tie.expiry-2000 <= 400_000 {
		t.Fatalf("the first expiry with a task queued is at %d: no room for an event before it", tie.expiry)
	}
	for _, sc := range spinScenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := runSpin(t, sc, spinRef, tie)
			got := runSpin(t, sc, (*Task).SpinWait, tie)
			if g, w := got.dump(), ref.dump(); g != w {
				t.Fatalf("SpinWait diverges from the spinning loop\n--- SpinWait\n%s--- spinning\n%s", g, w)
			}
			if got.ctx.Plat.Engine.Stats.Replayed == 0 {
				t.Fatal("SpinWait never parked: the scenario tests nothing")
			}
			if _, queued := ref.ends["intruder dispatched"]; queued && got.ctx.Plat.Engine.Stats.TimedParks == 0 {
				t.Fatal("SpinWait never parked while a task was queued on its CPU")
			}
			if _, wrote := ref.ends["writer"]; wrote && ref.served == 0 {
				t.Fatal("the write served no request")
			}
		})
	}
}

// TestSpinParkZeroAllocs requires parking and waking to allocate nothing:
// across 50 wake-ups of a parked poller (each one a replay, a serve and a
// new park) the process's allocation count does not move. With a task
// queued on the poller's CPU throughout, its parks end by themselves at
// each slice expiry (timed parks) between the wake-ups. The same holds for
// a CAS spin (SpinCAS) that the other node's writes of the held lock word
// wake 50 times.
func TestSpinParkZeroAllocs(t *testing.T) {
	// No collection during the run: the runtime's work after one (starting
	// mark workers, background cleanups) allocates on its own goroutines,
	// which ReadMemStats counts too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			r := newSpinRig(t, 2000, 0)
			r.spawnPoller((*Task).SpinWait)
			if queued {
				r.queue("intruder", 100_000, 1_000_000)
			}
			var before, after runtime.MemStats
			var replayed, timed int64
			es := &r.ctx.Plat.Engine.Stats
			r.ctx.Plat.Engine.Spawn("writer", 400_000, func(th *sim.Thread) {
				pt := r.ctx.Plat.NewPort(mem.NodeX86, 1, th)
				for i := 1; i <= 60; i++ {
					if i == 10 {
						runtime.ReadMemStats(&before)
						replayed, timed = es.Replayed, es.TimedParks
					}
					th.YieldPoint()
					pt.Write64(r.words[0], uint64(i))
					th.YieldPoint()
					th.Advance(20_000)
				}
				runtime.ReadMemStats(&after)
				replayed, timed = es.Replayed-replayed, es.TimedParks-timed
				pt.Write64(r.words[2], 1)
			})
			if err := r.ctx.Plat.Engine.Run(); err != nil {
				t.Fatal(err)
			}
			if replayed == 0 || r.served != 60 {
				t.Fatalf("%d yield points replayed, %d requests served: the poller did not park between wake-ups", replayed, r.served)
			}
			if queued && (timed < 50 || r.ends["intruder"] < 1_600_000) {
				t.Fatalf("%d timed parks, the queued task done at %d: the poller did not park behind it throughout", timed, r.ends["intruder"])
			}
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("%d allocations over 50 park/wake cycles", n)
			}
		})
	}
	t.Run("cas", func(t *testing.T) {
		r := newSpinRig(t, 2000, 0)
		var lock mem.PhysAddr
		var waiters sim.Waiters
		var ran, replayed int64
		spawnScheduled(r.ctx, r.s, r.v, "locker", 0, 0, func(t *Task) error {
			va, err := t.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "lock")
			if err != nil {
				return err
			}
			if err := t.Store(va, 8, 1); err != nil { // held
				return err
			}
			if lock, err = t.translate(va, false); err != nil {
				return err
			}
			ran, replayed, _ = t.SpinCAS(&waiters, lock, 0, 1, 60, math.MaxInt64)
			return nil
		}, r.errp())
		var before, after runtime.MemStats
		var parked int64
		es := &r.ctx.Plat.Engine.Stats
		r.ctx.Plat.Engine.Spawn("writer", 400_000, func(th *sim.Thread) {
			pt := r.ctx.Plat.NewPort(mem.NodeArm, 0, th)
			for i := 1; i <= 60; i++ {
				if i == 10 {
					runtime.ReadMemStats(&before)
					parked = es.Replayed
				}
				th.YieldPoint()
				pt.Write64(lock, 1)
				th.YieldPoint()
				th.Advance(20_000)
			}
			runtime.ReadMemStats(&after)
			parked = es.Replayed - parked
			waiters.Disturb()
			pt.Write64(lock, 0)
		})
		if err := r.ctx.Plat.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		for _, err := range r.errs {
			if *err != nil {
				t.Fatal(*err)
			}
		}
		if parked == 0 || ran < 60 || replayed == 0 {
			t.Fatalf("%d yield points replayed between wake-ups, %d failed CASes run and %d replayed: the spin did not park between them", parked, ran, replayed)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%d allocations over 50 park/wake cycles", n)
		}
	})
}
