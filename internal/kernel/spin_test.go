package kernel

import (
	"fmt"
	"runtime"
	"runtime/debug"
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
	ctx    *Context
	s      *Scheduler
	v      *Vanilla
	poller *Task
	base   pgtable.VirtAddr
	words  [3]mem.PhysAddr // head, tail, stop
	ends   map[string]sim.Cycles
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

func newSpinRig(t *testing.T, quantum int64) *spinRig {
	t.Helper()
	cfg := hw.DefaultConfig(mem.Separated)
	cfg.Cache.Nodes[0].Cores = 2
	for n := range cfg.Cache.Nodes {
		cfg.Cache.Nodes[n].L3 = cache.LevelConfig{Size: 64 << 10, Ways: 4}
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
		ends: map[string]sim.Cycles{}, returns: make([]sim.Cycles, 0, 256)}
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
			if err := wait(t, addrs, vals, 300, spinIdle); err != nil {
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

// write64 stores v into word i at clock at from (node, core).
func (r *spinRig) write64(name string, node mem.NodeID, core int, at sim.Cycles, i int, v uint64) {
	r.raw(name, node, core, at, func(pt *hw.Port) { pt.Write64(r.words[i], v) })
}

// dump renders every number the comparison holds.
func (r *spinRig) dump() string {
	var b strings.Builder
	for _, name := range []string{"poller", "writer", "stopper", "evictor", "shootdown", "intruder"} {
		if c, ok := r.ends[name]; ok {
			fmt.Fprintf(&b, "%s ends at %d\n", name, c)
		}
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
// iteration's first).
type spinTies struct{ probe, poll sim.Cycles }

// spinScenario is one disturbing event: spawn its threads on r, before the
// poller's (first) or after it.
type spinScenario struct {
	name    string
	quantum int64
	first   bool
	spawn   func(r *spinRig, tie spinTies)
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
		spawnScheduled(r.ctx, r.s, r.v, "intruder", 0, 400_000, func(t *Task) error {
			buf, err := t.Proc.Mmap(8<<10, VMARead|VMAWrite, "buf")
			if err != nil {
				return err
			}
			for off := pgtable.VirtAddr(0); off < 8<<10; off += 64 {
				if err := t.Store(buf+off, 8, uint64(off)); err != nil {
					return err
				}
			}
			t.Compute(5000)
			r.ends["intruder"] = t.Th.Now()
			return nil
		}, r.errp())
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
	{name: "clock tie at the poll, lower ID", first: true, spawn: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.poll, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "clock tie at the poll, higher ID", spawn: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.poll, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
	{name: "clock tie at the probe, lower ID", first: true, spawn: func(r *spinRig, tie spinTies) {
		r.write64("writer", mem.NodeX86, 1, tie.probe, 0, 1)
		r.write64("stopper", mem.NodeX86, 1, 900_000, 2, 1)
	}},
}

// runSpin runs scenario sc with the poller waiting through wait and
// returns the rig after the run.
func runSpin(t *testing.T, sc spinScenario, wait waitFunc, tie spinTies) *spinRig {
	t.Helper()
	q := sc.quantum
	if q == 0 {
		q = 2000
	}
	r := newSpinRig(t, q)
	if sc.first {
		sc.spawn(r, tie)
	}
	if wait == nil {
		wait = r.recordingRef
	}
	r.spawnPoller(wait)
	if !sc.first {
		sc.spawn(r, tie)
	}
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
// from both — and that SpinWait actually parked.
func TestSpinWaitMatchesSpinning(t *testing.T) {
	// Tie clocks: the loop's yield points once it has long been idle, from
	// an undisturbed reference run (the poller's clocks before any event
	// are the same in every scenario).
	idle := runSpin(t, spinScenarios[5], nil, spinTies{})
	var tie spinTies
	for i := 0; i+2 < len(idle.clocks); i += 3 {
		if idle.clocks[i] >= 400_000 {
			tie = spinTies{probe: idle.clocks[i+1], poll: idle.clocks[i+2]}
			break
		}
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
			if _, wrote := ref.ends["writer"]; wrote && ref.served == 0 {
				t.Fatal("the write served no request")
			}
		})
	}
}

// TestSpinParkZeroAllocs requires parking and waking to allocate nothing:
// across 50 wake-ups of a parked poller (each one a replay, a serve and a
// new park) the process's allocation count does not move.
func TestSpinParkZeroAllocs(t *testing.T) {
	// No collection during the run: the runtime's work after one (starting
	// mark workers, background cleanups) allocates on its own goroutines,
	// which ReadMemStats counts too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := newSpinRig(t, 2000)
	r.spawnPoller((*Task).SpinWait)
	var before, after runtime.MemStats
	var replayed int64
	r.ctx.Plat.Engine.Spawn("writer", 400_000, func(th *sim.Thread) {
		pt := r.ctx.Plat.NewPort(mem.NodeX86, 1, th)
		for i := 1; i <= 60; i++ {
			if i == 10 {
				runtime.ReadMemStats(&before)
				replayed = r.ctx.Plat.Engine.Stats.Replayed
			}
			th.YieldPoint()
			pt.Write64(r.words[0], uint64(i))
			th.YieldPoint()
			th.Advance(20_000)
		}
		runtime.ReadMemStats(&after)
		replayed = r.ctx.Plat.Engine.Stats.Replayed - replayed
		pt.Write64(r.words[2], 1)
	})
	if err := r.ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if replayed == 0 || r.served != 60 {
		t.Fatalf("%d yield points replayed, %d requests served: the poller did not park between wake-ups", replayed, r.served)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocations over 50 park/wake cycles", n)
	}
}
