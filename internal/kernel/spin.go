package kernel

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// SpinWait is a wait loop polling the 64-bit words at addrs, as a worker
// polls its rings: each iteration is a yield point, one Load of every word
// into vals, another yield point, and then — when idle reports the words
// as nothing to do — interval cycles and a third yield point. It returns
// once idle rejects a probe's words (left in vals), or at the first load
// error, after the probe's closing yield point either way. idle must be a
// pure function of the words.
//
// The loop parks instead of spinning when it provably can (DESIGN.md §6,
// "Spin parking"): the last probe found nothing to do and all its loads
// were TLB and L1D hits; the task is a root task that holds its CPU with
// an empty run queue under time-slicing; no tracer and no cache Tap is
// installed. Until something disturbs it, every skipped iteration would
// repeat the last one exactly, so when the task wakes it replays them in
// closed form — its counters, its cache counters and the scheduler's slice
// arithmetic at every skipped yield point — and resumes at its first yield
// point ordered after the disturbing segment. Every simulated number is
// the same as spinning.
func (t *Task) SpinWait(addrs []pgtable.VirtAddr, vals []uint64, interval sim.Cycles, idle func(vals []uint64) bool) error {
	const (
		atLoopTop = iota // next: the iteration's first yield point
		atProbe          // next: the loads
		atCheck          // next: the idle test of vals
	)
	lat := t.Ctx.Plat.Cfg.Cache.Nodes[t.Node].Lat.L1
	sp := t.spinLoop()
	pos, busy := atLoopTop, false
	for {
		switch pos {
		case atLoopTop:
			sp.ran++
			t.Th.YieldPoint()
			fallthrough
		case atProbe:
			start, misses := t.Th.Now(), t.Stats.TLBMisses
			for i, a := range addrs {
				v, err := t.Load(a, 8)
				if err != nil {
					t.Th.YieldPoint()
					return err
				}
				vals[i] = v
			}
			// Arm inside the probe's segment: from its last load on,
			// whatever would change the next probe disarms the watch.
			if busy = !idle(vals); !busy && t.Stats.TLBMisses == misses && t.Th.Now()-start == sim.Cycles(len(addrs))*lat {
				t.armSpin(addrs)
			}
			sp.ran++
			t.Th.YieldPoint()
		}
		if busy {
			return nil
		}
		t.Th.Advance(interval)
		pos = atLoopTop
		if !t.parkable(interval) {
			sp.disturb()
			sp.ran++
			t.Th.YieldPoint()
			continue
		}
		switch sp.park(interval) % 3 {
		case 1:
			pos = atProbe
		case 2:
			pos = atCheck
		}
	}
}

// spinLoop is a task's wait-loop state, allocated by its first SpinWait
// and reused by every later one.
type spinLoop struct {
	t     *Task
	watch cache.Watch
	// pages are the polled words' pages, for TLB shootdowns.
	pages [cache.MaxWatchLines]pgtable.VirtAddr
	n     int
	// The loop's yield points from the park point on: yield point j is at
	// clock c0 + (j/3)·period, plus probe when j%3 == 2, and the task has
	// retired instr0 + n·((j+1)/3) instructions there (n loads a probe).
	c0, probe, period sim.Cycles
	instr0            int64
	parked            bool
	// resume is the index of the yield point the last wake resumed at.
	resume int64
	// ran and replayed count the loop's yield points run and replayed.
	ran, replayed int64
	// fire and wake are bound once, so parking allocates nothing.
	fire func()
	wake func(from sim.Cycles) (int64, sim.Cycles)
}

// spinLoop returns the task's wait-loop state, allocating it on first use.
func (t *Task) spinLoop() *spinLoop {
	if t.spin == nil {
		sp := &spinLoop{t: t}
		sp.fire = func() { t.Th.Disturb() }
		sp.wake = sp.replay
		t.spin = sp
	}
	return t.spin
}

// SpinYields returns how many yield points the task's wait loops
// (SpinWait) ran and how many they replayed instead, parked. Host-side
// observability, like sim.EngineStats: no simulated number depends on it.
func (t *Task) SpinYields() (ran, replayed int64) {
	if t.spin == nil {
		return 0, 0
	}
	return t.spin.ran, t.spin.replayed
}

// armSpin arms the loop's watch after a probe of addrs that hit throughout
// and found nothing to do, if the task is one that may park at all.
func (t *Task) armSpin(addrs []pgtable.VirtAddr) {
	plat := t.Ctx.Plat
	if t.Sched == nil || t.Sched.Policy != SchedTimeSlice || t.Proc.Ten != nil ||
		plat.Tracer != nil || plat.Engine.Tracer != nil || len(addrs) > cache.MaxWatchLines {
		return
	}
	sp := t.spin
	var pas [cache.MaxWatchLines]mem.PhysAddr
	for i, a := range addrs {
		pva := a &^ (mem.PageSize - 1)
		fr, _, ok := t.tlb[t.Node].lookup(pva)
		if !ok {
			return
		}
		pas[i] = fr + mem.PhysAddr(a-pva)
		sp.pages[i] = pva
	}
	if plat.Caches.Arm(&sp.watch, t.Node, t.Core, pas[:len(addrs)], sp.fire) {
		sp.n = len(addrs)
		sp.probe = sim.Cycles(sp.n) * plat.Cfg.Cache.Nodes[t.Node].Lat.L1
	}
}

// parkable reports whether the loop may park at its third yield point: the
// watch armed by the last probe still holds, the task holds its CPU with
// an empty run queue, and no advance of the loop would reach a quantum
// yield (the headroom is the quantum less interval; the loads run from a
// fresh yield point).
func (t *Task) parkable(interval sim.Cycles) bool {
	sp, cpu := t.spin, t.cpu
	return sp.watch.Armed() && t.State == TaskRunning && cpu != nil && cpu.cur == t &&
		len(cpu.queue) == 0 && t.Th.Preemptible() && interval > 0 && t.Th.YieldHeadroom() > sp.probe
}

// park parks the task at the loop's yield point and returns the index of
// the yield point it resumed at.
func (sp *spinLoop) park(interval sim.Cycles) int64 {
	t := sp.t
	sp.c0, sp.period = t.Th.Now(), sp.probe+interval
	sp.instr0 = t.instrTotal()
	sp.parked = true
	sp.ran++
	t.Th.Park("spin", sp.wake)
	return sp.resume
}

// disturb ends the task's park, if it is parked, or else disarms the
// watch: the last probe no longer predicts the next.
func (sp *spinLoop) disturb() {
	switch {
	case sp == nil:
	case sp.parked:
		sp.t.Th.Disturb()
	default:
		sp.watch.Disarm()
	}
}

// watchesPage reports whether the parked loop polls a word on page pva.
func (sp *spinLoop) watchesPage(pva pgtable.VirtAddr) bool {
	return slices.Contains(sp.pages[:sp.n], pva)
}

// clock returns the clock of the loop's yield point j.
func (sp *spinLoop) clock(j int64) sim.Cycles {
	c := sp.c0 + sim.Cycles(j/3)*sp.period
	if j%3 == 2 {
		c += sp.probe
	}
	return c
}

// instr returns the task's retired instructions at yield point j.
func (sp *spinLoop) instr(j int64) int64 { return sp.instr0 + int64(sp.n)*((j+1)/3) }

// firstAt returns the first yield point at or after clock c.
func (sp *spinLoop) firstAt(c sim.Cycles) int64 {
	if c <= sp.c0 {
		return 0
	}
	d := c - sp.c0
	m, r := int64(d/sp.period), d%sp.period
	switch {
	case r == 0:
		return 3 * m
	case r <= sp.probe:
		return 3*m + 2
	}
	return 3 * (m + 1)
}

// firstWith returns the first yield point with at least instr
// instructions retired.
func (sp *spinLoop) firstWith(instr int64) int64 {
	d := instr - sp.instr0
	if d <= 0 {
		return 0
	}
	n := int64(sp.n)
	return 3*((d+n-1)/n) - 1
}

// replay is the park's wake (sim.Thread.Park): it disarms the watch, finds
// the first yield point at or after from, and applies what the iterations
// before it would have — each probe's loads as L1D hits, and the
// preemption hook at every yield point before it.
func (sp *spinLoop) replay(from sim.Cycles) (int64, sim.Cycles) {
	t := sp.t
	sp.watch.Disarm()
	sp.parked = false
	j := sp.firstAt(from)
	if probes := (j + 1) / 3; probes > 0 {
		loads := probes * int64(sp.n)
		t.Stats.Loads += loads
		t.Stats.NodeInstructions[t.Node] += loads
		t.Stats.MemAccessCycles += t.Ctx.Plat.Caches.ReplayL1DHits(t.Node, t.Core, loads)
	}
	t.Sched.replaySlices(t, sp, j)
	sp.resume = j
	sp.replayed += j
	return j, sp.clock(j)
}
