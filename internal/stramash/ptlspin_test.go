package stramash

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lockPTLRef is lockPTL as it spun before kernel.Task.SpinCAS, kept
// verbatim as the reference the parked acquire must be indistinguishable
// from (but for the lock word's field), plus the rig's recording: the clock of each failed CAS's own
// yield point and of its poll, and the failed CASes.
func (r *ptlRig) lockPTLRef(o *OS, t *kernel.Task) {
	addr := o.ptl[t.Proc.PID].word
	start := t.Th.Now()
	for i := 0; ; i++ {
		if _, ok := t.Port.CompareAndSwap64(addr, 0, uint64(t.Node)+1); ok {
			o.Stats.PTLAcquisitions++
			if tr := o.Ctx.Plat.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindPTLAcquire,
					Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
					PA: uint64(addr), Cost: int64(t.Th.Now() - start)})
			}
			return
		}
		r.failed++
		r.clocks[t.Name] = append(r.clocks[t.Name], t.Th.Now())
		t.Th.Advance(60)
		t.Th.YieldPoint()
		r.clocks[t.Name] = append(r.clocks[t.Name], t.Th.Now())
		if i > 1_000_000 {
			panic("stramash: PTL livelock")
		}
	}
}

// ptlRig is one fresh machine, four x86 cores and two Arm cores under a
// time-slicing scheduler, with one fused-kernel process whose tasks
// contend for its PTL: a holder that takes it at clock 0, waiters,
// and whatever disturbs them.
type ptlRig struct {
	ctx  *kernel.Context
	o    *OS
	s    *kernel.Scheduler
	proc *kernel.Process
	// lock is lockPTL or the reference.
	lock     func(o *OS, t *kernel.Task)
	tasks    []*kernel.Task
	acquired map[string][]sim.Cycles
	ends     map[string]sim.Cycles
	// clocks and failed are the reference's recording.
	clocks map[string][]sim.Cycles
	failed int64
	events *trace.Buffer
}

func newPTLRig(tb testing.TB, quantum int64, parks, traced bool) *ptlRig {
	tb.Helper()
	cfg := hw.DefaultConfig(mem.Shared)
	cfg.Cache.Nodes[mem.NodeX86].Cores = 4
	cfg.Cache.Nodes[mem.NodeArm].Cores = 2
	r := &ptlRig{acquired: map[string][]sim.Cycles{}, ends: map[string]sim.Cycles{}, clocks: map[string][]sim.Cycles{}}
	if traced {
		r.events = trace.NewBuffer()
		cfg.Tracer = r.events
	}
	plat := hw.NewPlatform(cfg)
	x86k, err := kernel.Boot(plat, mem.NodeX86, pgtable.X86Format{}, kernel.BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	armk, err := kernel.Boot(plat, mem.NodeArm, pgtable.Arm64Format{}, kernel.BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	r.ctx = &kernel.Context{Plat: plat, Kernels: [2]*kernel.Kernel{x86k, armk}}
	plat.Engine.Spawn("boot", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		base := plat.Layout().OwnedRegions(mem.NodeX86)[0].Start + (32 << 20)
		r.o = New(r.ctx, interconnect.NewMessenger(interconnect.DefaultConfig(interconnect.SHM, base), plat, pt))
		r.proc, err = r.o.CreateProcess(pt, mem.NodeX86)
	})
	if err := plat.Engine.Run(); err != nil {
		tb.Fatal(err)
	}
	if err != nil {
		tb.Fatal(err)
	}
	r.s = kernel.NewScheduler(r.ctx, kernel.SchedTimeSlice, quantum)
	r.lock = r.lockPTLRef
	if parks {
		r.lock = (*OS).lockPTL
	}
	return r
}

// task binds th to a task of the rig's process on (node, core).
func (r *ptlRig) task(name string, node mem.NodeID, core int, th *sim.Thread) *kernel.Task {
	t := kernel.NewTaskOn(name, r.proc, r.o, r.ctx, th, core)
	if node != t.Node {
		t.Rebind(node)
	}
	return t
}

// holder takes the PTL at clock 0 on an unscheduled task on (node, 0) and
// releases it in a segment that starts at release.
func (r *ptlRig) holder(node mem.NodeID, release sim.Cycles) {
	r.ctx.Plat.Engine.Spawn("holder", 0, func(th *sim.Thread) {
		t := r.task("holder", node, 0, th)
		r.lock(r.o, t)
		th.AdvanceTo(release)
		th.YieldPoint()
		r.o.unlockPTL(t)
		r.ends["holder"] = th.Now()
	})
}

// waiter starts a scheduled task on (node, core) at clock start that takes
// the PTL, computes for a while and releases it in a later segment.
func (r *ptlRig) waiter(name string, node mem.NodeID, core int, start sim.Cycles) {
	r.ctx.Plat.Engine.Spawn(name, start, func(th *sim.Thread) {
		t := r.task(name, node, core, th)
		r.tasks = append(r.tasks, t)
		r.s.Attach(t)
		t.Compute(3000)
		r.lock(r.o, t)
		r.acquired[name] = append(r.acquired[name], th.Now())
		t.Compute(2000)
		th.YieldPoint() // the release is a later segment: the others poll on
		r.o.unlockPTL(t)
		t.Compute(1000)
		r.ends[name] = th.Now()
		r.s.Detach(t)
	})
}

// intruder starts a scheduled task that computes on (node, core) from
// clock start: an enqueue on that CPU if a waiter holds it, which then
// hands it the CPU at its slice's expiry.
func (r *ptlRig) intruder(name string, node mem.NodeID, core int, start sim.Cycles) {
	r.ctx.Plat.Engine.Spawn(name, start, func(th *sim.Thread) {
		t := r.task(name, node, core, th)
		r.tasks = append(r.tasks, t)
		r.s.Attach(t)
		r.ends[name+" dispatched"] = th.Now()
		t.Compute(20_000)
		r.ends[name] = th.Now()
		r.s.Detach(t)
	})
}

// dump renders every number the comparison holds.
func (r *ptlRig) dump() string {
	var b strings.Builder
	for _, t := range r.tasks {
		fmt.Fprintf(&b, "%s acquired %v ends %d now %d %+v\n", t.Name, r.acquired[t.Name], r.ends[t.Name], t.Th.Now(), t.Stats)
	}
	for _, name := range []string{"holder", "reader", "intruder dispatched"} {
		fmt.Fprintf(&b, "%s ends %d\n", name, r.ends[name])
	}
	h := r.ctx.Plat.Caches
	for n := mem.NodeID(0); n < 2; n++ {
		fmt.Fprintf(&b, "%v %+v\n", n, h.Stats(n))
		for c := 0; c < r.s.Cores(n); c++ {
			cpu := r.s.CPUOf(n, c)
			fmt.Fprintf(&b, "%v core%d %+v dispatches=%d preemptions=%d busy=%d\n",
				n, c, h.CoreStats(n, c), cpu.Dispatches, cpu.Preemptions, cpu.Busy)
		}
	}
	fmt.Fprintf(&b, "PTL acquisitions %d\n", r.o.Stats.PTLAcquisitions)
	if r.events != nil {
		fmt.Fprintf(&b, "events %v\n", r.events.Events)
	}
	e := r.ctx.Plat.Engine
	fmt.Fprintf(&b, "segments %d cycles %d max %d\n", e.Stats.SerialSegments, e.Stats.SerialCycles, e.MaxTime())
	return b.String()
}

// ptlTies are clocks of the first waiter's loop from an undisturbed
// reference run: a failed CAS's own yield point at or after 250 000, and
// the poll after it.
type ptlTies struct{ probe, poll sim.Cycles }

// ptlScenario is one way a parked PTL acquire ends. noPark marks waiters
// that must not park; queued ones that must park with a task queued on
// their CPU (sim.EngineStats.TimedParks).
type ptlScenario struct {
	name           string
	traced         bool
	noPark, queued bool
	spawn          func(r *ptlRig, tie ptlTies)
}

var ptlScenarios = []ptlScenario{
	{name: "one waiter", spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeArm, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
	}},
	{name: "one waiter, holder on its node", spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeX86, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
	}},
	// The release's segment ties with a loop yield point. A lower-ID
	// holder releases before the waiter's yield point at its clock: at a
	// CAS's own yield point, whose charge already ran, the compare-and-swap
	// then swaps. A higher-ID one releases after it, so the waiter polls
	// once more.
	{name: "release tied with a CAS, lower ID", spawn: func(r *ptlRig, tie ptlTies) {
		r.holder(mem.NodeArm, tie.probe)
		r.waiter("w1", mem.NodeX86, 1, 1000)
	}},
	{name: "release tied with a CAS, higher ID", spawn: func(r *ptlRig, tie ptlTies) {
		r.waiter("w1", mem.NodeX86, 1, 1000)
		r.holder(mem.NodeArm, tie.probe)
	}},
	{name: "release tied with a poll, lower ID", spawn: func(r *ptlRig, tie ptlTies) {
		r.holder(mem.NodeArm, tie.poll)
		r.waiter("w1", mem.NodeX86, 1, 1000)
	}},
	{name: "release tied with a poll, higher ID", spawn: func(r *ptlRig, tie ptlTies) {
		r.waiter("w1", mem.NodeX86, 1, 1000)
		r.holder(mem.NodeArm, tie.poll)
	}},
	// The second waiter arrives while the first is parked; from then on
	// each one's CAS disturbs the other.
	{name: "two waiters on different nodes", spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeArm, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
		r.waiter("w2", mem.NodeArm, 1, 100_000)
	}},
	{name: "two waiters on one node", spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeArm, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
		r.waiter("w2", mem.NodeX86, 2, 100_000)
	}},
	// With a task queued on its CPU the waiter's hook does nothing until
	// its slice expires and then yields the CPU, so its park ends by
	// itself at the expiry yield point (sim.Spin.Bound).
	{name: "task queued on the waiter's CPU", queued: true, spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeArm, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
		r.intruder("intruder", mem.NodeX86, 1, 151_000)
	}},
	// A read from the other node demotes the line the waiter holds in M
	// state: its next CAS pays a snoop invalidation.
	{name: "read of the lock line from the other node", spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeArm, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
		r.ctx.Plat.Engine.Spawn("reader", 150_000, func(th *sim.Thread) {
			th.YieldPoint()
			r.ctx.Plat.NewPort(mem.NodeArm, 1, th).Read64(r.o.ptl[r.proc.PID].word)
			th.YieldPoint()
			r.ends["reader"] = th.Now()
		})
	}},
	{name: "tracer installed", traced: true, noPark: true, spawn: func(r *ptlRig, _ ptlTies) {
		r.holder(mem.NodeArm, 300_000)
		r.waiter("w1", mem.NodeX86, 1, 1000)
	}},
}

// runPTL runs scenario sc with the PTL parking or spinning.
func runPTL(t *testing.T, sc ptlScenario, parks bool, tie ptlTies) *ptlRig {
	t.Helper()
	r := newPTLRig(t, 2000, parks, sc.traced)
	sc.spawn(r, tie)
	if err := r.ctx.Plat.Engine.Run(); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	return r
}

// TestLockPTLMatchesSpinning runs each scenario on fresh machines with
// the PTL acquire spinning (the verbatim old loop) and parking, and
// requires the same clocks, task, cache and CPU counters, PTL acquisitions
// and engine segment accounting from both; that the parked acquire ran or
// replayed exactly the failed CASes the spinning one ran; and that it
// parked, except under a tracer, with a task queued on its CPU too where
// the scenario queues one.
func TestLockPTLMatchesSpinning(t *testing.T) {
	idle := runPTL(t, ptlScenarios[0], false, ptlTies{})
	var tie ptlTies
	clocks := idle.clocks["w1"]
	if i := slices.IndexFunc(clocks, func(c sim.Cycles) bool { return c >= 250_000 }); i >= 0 && i+1 < len(clocks) {
		i -= i % 2 // even entries are the CASes' own yield points
		tie = ptlTies{probe: clocks[i], poll: clocks[i+1]}
	}
	if tie.probe == 0 {
		t.Fatalf("no failed CAS at or after 250 000 in the reference run: %v", clocks)
	}
	for _, sc := range ptlScenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := runPTL(t, sc, false, tie)
			got := runPTL(t, sc, true, tie)
			if g, w := got.dump(), ref.dump(); g != w {
				t.Fatalf("lockPTL diverges from the spinning loop\n--- parked\n%s--- spinning\n%s", g, w)
			}
			st, es := got.o.Stats, got.ctx.Plat.Engine.Stats
			if ref.failed == 0 {
				t.Fatal("no CAS failed: the scenario tests nothing")
			}
			if n := st.PTLFailedRun + st.PTLFailedReplayed; n != ref.failed {
				t.Errorf("%d failed CASes run and %d replayed, the spinning loop failed %d", st.PTLFailedRun, st.PTLFailedReplayed, ref.failed)
			}
			if parked := es.Replayed > 0 && st.PTLFailedReplayed > 0; parked == sc.noPark {
				t.Fatalf("%d yield points and %d failed CASes replayed", es.Replayed, st.PTLFailedReplayed)
			}
			if sc.queued && es.TimedParks == 0 {
				t.Fatal("no waiter parked while a task was queued on its CPU")
			}
		})
	}
}

// BenchmarkPTLSpinPark is the host cost of one contended PTL acquire that
// parks: an Arm holder takes the lock for 20 000 cycles at a time, and a
// scheduled x86 waiter, parked meanwhile, takes it between the holds.
func BenchmarkPTLSpinPark(b *testing.B) {
	r := newPTLRig(b, 2000, true, false)
	done := false
	r.ctx.Plat.Engine.Spawn("holder", 0, func(th *sim.Thread) {
		t := r.task("holder", mem.NodeArm, 0, th)
		for i := 0; i < b.N; i++ {
			r.o.lockPTL(t)
			th.Advance(20_000)
			th.YieldPoint()
			r.o.unlockPTL(t)
			th.Advance(1000)
		}
		done = true
	})
	r.ctx.Plat.Engine.Spawn("waiter", 0, func(th *sim.Thread) {
		t := r.task("waiter", mem.NodeX86, 1, th)
		r.s.Attach(t)
		for !done {
			r.o.lockPTL(t)
			th.Advance(100)
			th.YieldPoint()
			r.o.unlockPTL(t)
			th.Advance(3000)
			th.YieldPoint()
		}
		r.s.Detach(t)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := r.ctx.Plat.Engine.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(r.o.Stats.PTLFailedReplayed)/float64(b.N), "replayed/op")
	b.ReportMetric(float64(r.o.Stats.PTLFailedRun)/float64(b.N), "run/op")
}
