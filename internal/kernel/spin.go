package kernel

import (
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/hw"
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
// The loop parks (sim.Thread.ParkSpin) instead of spinning when it
// provably can (DESIGN.md §6, "Parking"): the last probe found
// nothing to do and all its loads were TLB and L1D hits; the task is a
// root task that holds its CPU under time-slicing, with preemption
// enabled; no tracer and no cache Tap is installed. Until something
// disturbs it, every skipped iteration would repeat the last one exactly,
// so when the task wakes its SpinHook replays them in closed form — its
// counters, its cache counters and the scheduler's slice arithmetic at
// every skipped yield point — and it resumes at its first yield point
// ordered after the disturbing segment. With a task queued on its CPU the
// park also ends by itself at the slice's expiry, where the task yields
// the CPU. Every simulated number is the same as spinning.
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
		sp.ran++
		// The SpinHook replays the loads, and it runs only where the
		// preemption hook would.
		j, parked := int64(0), false
		if sp.watch.Armed() && t.Th.Preemptible() {
			j, parked = t.Th.ParkSpin("spin", nil, sim.Spin{C0: t.Th.Now(), Interval: interval,
				Probe: sim.Cycles(sp.n) * lat, Hits: int64(sp.n), Loads: int64(sp.n)})
		}
		// Whatever woke the loop, or kept it from parking, ends the last
		// probe's prediction of the next.
		sp.watch.Disarm()
		if !parked {
			t.Th.YieldPoint()
			continue
		}
		switch j % 3 {
		case 1:
			pos = atProbe
		case 2:
			pos = atCheck
		}
	}
}

// SpinCAS is a CAS spin lock's contended acquire through the task's port,
// the wait loop
//
//	for !t.Port.CompareAndSwap64(pa, old, new) {
//		t.Th.Advance(interval)
//		t.Th.YieldPoint()
//	}
//
// whose every CAS is a yield point between its charge and the
// compare-and-swap. It returns once a CAS swaps, with the failed CASes it
// ran and those it replayed parked; or, with ok false, after the poll of
// the first failed CAS beyond limit. w lists the parked waiters, for the
// lock's release to disturb: every write that stores old into the word
// must call w.Disturb first, in its own segment.
//
// The loop parks (sim.Thread.ParkSpin) after a failed CAS whose write hit
// the L1D, when the task may park as in SpinWait. Until the word's value
// changes, which only the release does, or something changes the cost of
// the next CAS — a write or read of the line from the other node, and the
// rest of cache.Watch's events — every skipped CAS would be the same write
// hit on a line the core holds Modified, and would fail. The SpinHook
// replays their hits (cache counters only, as a Port CAS counts nothing
// on the task) and the slice arithmetic, and the loop resumes at its first
// yield point ordered after the disturbing segment. If that is a CAS's own
// yield point, its charge is replayed and only its compare-and-swap is
// left to run.
func (t *Task) SpinCAS(w *sim.Waiters, pa mem.PhysAddr, old, new uint64, interval sim.Cycles, limit int64) (ran, replayed int64, ok bool) {
	lat := t.Ctx.Plat.Cfg.Cache.Nodes[t.Node].Lat.L1
	sp := t.spinLoop()
	for charged := false; ; {
		if !charged {
			// Arm inside the probe's segment, as SpinWait does; a CAS
			// that swaps disarms it.
			if t.Port.ChargeAtomic(pa) == lat {
				t.armCAS(pa)
			}
			t.Th.YieldPoint()
		}
		if _, ok := t.Ctx.Plat.Phys.CompareAndSwap64(pa, old, new); ok {
			sp.watch.Disarm()
			return ran, replayed, true
		}
		ran++
		t.Th.Advance(interval)
		j, parked := int64(0), false
		if sp.watch.Armed() && t.Th.Preemptible() {
			j, parked = t.Th.ParkSpin("lock:cas", w, sim.Spin{C0: t.Th.Now(), Interval: interval,
				Probe: lat + hw.AtomicPenalty, Hits: 1})
		}
		sp.watch.Disarm()
		if !parked {
			t.Th.YieldPoint()
		}
		// Yield point j closes CAS j/2+1 (odd j) or polls after CAS j/2
		// failed (even j).
		replayed += j / 2
		charged = j%2 == 1
		if ran+replayed > limit {
			return ran, replayed, false
		}
	}
}

// spinLoop is a task's wait-loop state and its scheduler's SpinHook,
// allocated by the task's first SpinWait, SpinCAS or Scheduler.Attach and
// reused by every later park.
type spinLoop struct {
	t     *Task
	watch cache.Watch
	// pages are the polled words' pages, for TLB shootdowns.
	pages [cache.MaxWatchLines]pgtable.VirtAddr
	n     int
	// ran and replayed count the SpinWait yield points run and replayed,
	// casReplayed the SpinCAS yield points replayed.
	ran, replayed, casReplayed int64
	// fire is bound once, so arming allocates nothing.
	fire func()
}

// spinLoop returns the task's wait-loop state, allocating it on first use.
func (t *Task) spinLoop() *spinLoop {
	if t.spin == nil {
		t.spin = &spinLoop{t: t, fire: func() { t.Th.Disturb() }}
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

// CASYields returns how many yield points the task's SpinCAS loops
// replayed parked. Host-side observability, like SpinYields.
func (t *Task) CASYields() (replayed int64) {
	if t.spin == nil {
		return 0
	}
	return t.spin.casReplayed
}

// mayPark reports whether the task is one whose wait loops may park at
// all: a root task under time-slicing, with no tracer installed.
func (t *Task) mayPark() bool {
	return t.Sched != nil && t.Sched.Policy == SchedTimeSlice && t.Proc.Ten == nil && t.Ctx.Plat.Tracer == nil
}

// armSpin arms the loop's watch after a probe of addrs that hit throughout
// and found nothing to do, if the task is one that may park at all.
func (t *Task) armSpin(addrs []pgtable.VirtAddr) {
	plat := t.Ctx.Plat
	if !t.mayPark() || len(addrs) == 0 || len(addrs) > cache.MaxWatchLines {
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
	if plat.Caches.Arm(&sp.watch, t.Node, t.Core, pas[:len(addrs)], false, sp.fire) {
		sp.n = len(addrs)
	}
}

// armCAS arms the loop's watch on the lock word at pa after a CAS whose
// write hit the L1D, if the task may park at all. No page is polled
// through the TLB.
func (t *Task) armCAS(pa mem.PhysAddr) {
	if !t.mayPark() {
		return
	}
	sp := t.spin
	pas := [1]mem.PhysAddr{pa}
	if t.Ctx.Plat.Caches.Arm(&sp.watch, t.Node, t.Core, pas[:], true, sp.fire) {
		sp.n = 0
	}
}

// disturb ends the task's SpinWait or SpinCAS park, if it is parked there,
// and disarms the watch: the last probe no longer predicts the next.
func (sp *spinLoop) disturb() {
	if sp != nil && sp.watch.Armed() {
		sp.t.Th.Disturb()
		sp.watch.Disarm()
	}
}

// watchesPage reports whether the loop polls a word on page pva.
func (sp *spinLoop) watchesPage(pva pgtable.VirtAddr) bool {
	return slices.Contains(sp.pages[:sp.n], pva)
}

// PureUntil is the first yield point of a parked loop s at which the
// task's preemption hook acts (sim.SpinHook). With the task alone on its
// CPU the hook is slice arithmetic on the task's own fields, until an
// enqueue on the CPU disturbs the loop (acquire): it never acts. With a
// task queued on the CPU the hook does nothing until the slice expires and
// then preempts: it acts at the slice's expiry, which a second enqueue
// does not move. A tenant's quantum may be rescaled meanwhile, so its
// tasks never park.
func (sp *spinLoop) PureUntil(s sim.Spin) int64 {
	t, cpu := sp.t, sp.t.cpu
	switch {
	case t.Proc.Ten != nil || t.State != TaskRunning || cpu == nil || cpu.cur != t:
		return 0
	case len(cpu.queue) == 0:
		return math.MaxInt64
	}
	return t.Sched.sliceEnd(t, s, t.instrTotal())
}

// Replay is the task's preemption hook over yield points 0..n-1 of its
// parked loop s (sim.SpinHook): the skipped probes' L1D hits, which a
// memory probe's loads also count on the task, then the slice arithmetic
// at every skipped yield point. With a task queued on the CPU that
// arithmetic is none: n <= s.Bound, the slice's expiry, so replaySlices
// finds no restart.
func (sp *spinLoop) Replay(s sim.Spin, n int64) {
	t := sp.t
	instr0 := t.instrTotal()
	if hits := s.L1DHits(n); hits > 0 {
		cycles := t.Ctx.Plat.Caches.ReplayL1DHits(t.Node, t.Core, hits)
		if loads := s.Instr(n); loads > 0 {
			t.Stats.Loads += loads
			t.Stats.NodeInstructions[t.Node] += loads
			t.Stats.MemAccessCycles += cycles
		}
	}
	switch {
	case s.Loads > 0:
		sp.replayed += n
	case s.Hits > 0:
		sp.casReplayed += n
	}
	t.Sched.replaySlices(t, s, instr0, n)
}
