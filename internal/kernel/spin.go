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
// root task attached to a scheduler (mayPark) whose preemption hook, if
// it runs, is pure for a while; no cache Tap is installed.
// Until something disturbs it, every skipped iteration would repeat the
// last one exactly, so when the task wakes the skipped iterations are
// replayed in closed form — its counters and its cache counters
// (ReplayProbes), and under time-slicing the scheduler's slice arithmetic
// at every skipped yield point (Replay) — and it resumes at its first
// yield point ordered after the disturbing segment. With a task queued on
// its CPU the park also ends by itself at the slice's expiry, where the
// task yields the CPU. Every simulated number is the same as spinning.
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
		sp.ran++
		pos = atLoopTop
		switch sp.poll("spin", nil, sim.Spin{Interval: interval, Probe: sim.Cycles(sp.n) * lat, Points: 3,
			Hits: int64(sp.n), Loads: int64(sp.n)}, math.MaxInt64) % 3 {
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
// hit on a line the core holds Modified, and would fail. The wake replays
// their hits (cache counters only, as a Port CAS counts nothing on the
// task) and the slice arithmetic, and the loop resumes at its first
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
				t.arm([]mem.PhysAddr{pa}, nil, true)
			}
			t.Th.YieldPoint()
		}
		if _, ok := t.Ctx.Plat.Phys.CompareAndSwap64(pa, old, new); ok {
			sp.watch.Disarm()
			return ran, replayed, true
		}
		ran++
		// Yield point j closes CAS j/2+1 (odd j) or polls after CAS j/2
		// failed (even j).
		j := sp.poll("lock:cas", w, sim.Spin{Interval: interval, Probe: lat + hw.AtomicPenalty, Points: 2, Hits: 1}, math.MaxInt64)
		replayed += j / 2
		charged = j%2 == 1
		if ran+replayed > limit {
			return ran, replayed, false
		}
	}
}

// BeginSockProbe marks the top of an iteration of a socket poll loop: the
// probe PollSock judges starts here.
func (t *Task) BeginSockProbe() {
	sp := t.spinLoop()
	sp.sockCalls, sp.sockIdle, sp.sockBegun = 0, 0, true
	sp.sockStart, sp.sockHeadroom = t.Th.Now(), t.Th.YieldHeadroom()
}

// PollSock is the poll of a socket poll loop's iteration that found
// nothing to do, the loop's
//
//	t.Th.Advance(interval)
//	t.Th.YieldPoint()
//
// after a probe, from BeginSockProbe on, of non-blocking socket syscalls
// (TryRecvSock, TrySocketAccept) that each took its idle path: nothing
// dequeued from the NIC's RX ring, nothing accepted, nothing buffered and
// no end of stream. until is the first clock at which the loop's next
// iteration would act without a socket event: a timer, such as the load
// generator's next arrival (math.MaxInt64: none). The caller vouches that
// the next iteration would repeat this one until a socket event or until.
//
// The loop parks (sim.Thread.ParkSpin) instead of spinning when the probe
// was k syscalls, every one idle, and nothing else — it cost exactly k
// syscall entries plus 2k L1D hits, one on each of the RX ring's head and
// tail words per syscall, and reached no quantum yield — and the task may
// park (mayPark). A read watch on those two lines catches what would
// change the next probe: the fabric's enqueue writes the head line,
// another local task's dequeue writes the tail line, and any other
// thread's access through the core's L1D fires it too (DESIGN.md §6,
// "Parking"). Until then every skipped probe would be the same k idle
// syscalls, so when the task wakes their instructions and L1D hits are
// replayed in closed form, with the slice arithmetic under time-slicing,
// and the loop resumes at its first poll ordered after the disturbing
// segment, or at the first at or after until. Every simulated number is
// the same as spinning.
func (t *Task) PollSock(interval, until sim.Cycles) {
	sp := t.spinLoop()
	k := sp.sockIdle
	probe := sim.Cycles(k) * (sockSyscallCost + 2*t.Ctx.Plat.Cfg.Cache.Nodes[t.Node].Lat.L1)
	// Arm inside the probe's segment, as SpinWait does: at a quantum
	// yield inside the probe a frame could have slipped in behind its
	// read of the ring.
	if sp.sockBegun && k > 0 && sp.sockCalls == k && t.Th.Now()-sp.sockStart == probe &&
		sp.sockHeadroom-t.Th.YieldHeadroom() == probe {
		head, tail := t.Ctx.Net.NIC.RX.Control()
		t.arm([]mem.PhysAddr{head, tail}, nil, false)
	}
	sp.sockBegun = false
	sp.sockRan++
	sp.poll("sock-poll", nil, sim.Spin{Interval: interval, Probe: probe, Points: 1, Hits: 2 * k, Instr: kinstrSockSyscall * k}, until)
}

// poll is the poll that ends a wait loop's idle iteration: it advances
// s.Interval cycles and parks the loop s from there (s.C0), with its
// Bound the first yield point at or after until (math.MaxInt64: none), if
// the last probe armed the watch; it disarms the watch, and runs the
// poll's yield point if the loop did not park. It returns the yield point
// the loop resumes at, 0 if it did not park.
func (sp *spinLoop) poll(reason string, w *sim.Waiters, s sim.Spin, until sim.Cycles) (j int64) {
	th := sp.t.Th
	th.Advance(s.Interval)
	parked := false
	if sp.watch.Armed() {
		s.C0, s.Bound = th.Now(), math.MaxInt64
		if until < math.MaxInt64 {
			s.Bound = s.FirstAt(until)
		}
		j, parked = th.ParkSpin(reason, w, s, sp)
	}
	// Whatever woke the loop, or kept it from parking, ends the last
	// probe's prediction of the next.
	sp.watch.Disarm()
	if !parked {
		th.YieldPoint()
	}
	return j
}

// spinLoop is a task's wait-loop state, its scheduler's SpinHook and its
// parked probes' SpinProbe, allocated by the task's first wait loop,
// socket syscall or Scheduler.Attach and reused by every later park.
type spinLoop struct {
	t     *Task
	watch cache.Watch
	// pages are the polled words' pages, for TLB shootdowns.
	pages [cache.MaxWatchLines]pgtable.VirtAddr
	n     int
	// ran and replayed count the SpinWait yield points run and replayed,
	// casReplayed the SpinCAS yield points replayed, sockRan and
	// sockReplayed the PollSock polls run and replayed.
	ran, replayed, casReplayed, sockRan, sockReplayed int64
	// sockCalls and sockIdle count the socket syscalls since the last
	// BeginSockProbe and those of them that took their idle path;
	// sockStart and sockHeadroom are its clock and the thread's yield
	// headroom there, and sockBegun is set until the next poll.
	sockCalls, sockIdle     int64
	sockStart, sockHeadroom sim.Cycles
	sockBegun               bool
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

// SockPolls returns how many idle socket-loop polls (PollSock) the task
// ran and how many it replayed instead, parked: each is one iteration
// that found nothing to do. Host-side observability, like SpinYields.
func (t *Task) SockPolls() (ran, replayed int64) {
	if t.spin == nil {
		return 0, 0
	}
	return t.spin.sockRan, t.spin.sockReplayed
}

// mayPark reports whether the task is one whose wait loops may park at
// all: a root task attached to a scheduler.
func (t *Task) mayPark() bool {
	return t.Sched != nil && t.Proc.Ten == nil
}

// armSpin arms the loop's watch after a probe of addrs that hit throughout
// and found nothing to do.
func (t *Task) armSpin(addrs []pgtable.VirtAddr) {
	if len(addrs) == 0 || len(addrs) > cache.MaxWatchLines {
		return
	}
	var pas [cache.MaxWatchLines]mem.PhysAddr
	var pages [cache.MaxWatchLines]pgtable.VirtAddr
	for i, a := range addrs {
		pages[i] = a &^ (mem.PageSize - 1)
		fr, _, _, ok := t.tlb.lookup(pages[i])
		if !ok {
			return
		}
		pas[i] = fr + mem.PhysAddr(a-pages[i])
	}
	t.arm(pas[:len(addrs)], pages[:len(addrs)], false)
}

// arm arms the loop's watch on the words at pas — a write watch if the
// probes are writes — if the task may park at all. pages are the pages
// the probe reached the words through the TLB on, for shootdowns: none
// for a lock word or the NIC's ring.
func (t *Task) arm(pas []mem.PhysAddr, pages []pgtable.VirtAddr, write bool) {
	if sp := t.spin; t.mayPark() && t.Ctx.Plat.Caches.Arm(&sp.watch, t.Node, t.Core, pas, write, sp.fire) {
		sp.n = copy(sp.pages[:], pages)
	}
}

// disturb ends the task's park in SpinWait, SpinCAS or PollSock, if it is
// parked there, and disarms the watch: the last probe no longer predicts
// the next.
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
// parked loop s (sim.SpinHook): the slice arithmetic at every skipped
// yield point, run before ReplayProbes counts the probes' instructions.
// With a task queued on the CPU that arithmetic is none: n <= s.Bound,
// the slice's expiry, so replaySlices finds no restart.
func (sp *spinLoop) Replay(s sim.Spin, n int64) {
	t := sp.t
	t.Sched.replaySlices(t, s, t.instrTotal(), n)
}

// ReplayProbes counts the probes the task's parked loop s closed up to
// yield point n (sim.SpinProbe): their L1D hits on the core's counters;
// a memory probe's loads, each an L1D hit, and a socket probe's syscall
// instructions on the task's. The loop's Points tell the three kernel
// loops apart: SpinWait has 3, SpinCAS 2 and PollSock 1.
func (sp *spinLoop) ReplayProbes(s sim.Spin, n int64) {
	t := sp.t
	if hits := s.L1DHits(n); hits > 0 {
		t.Ctx.Plat.Caches.ReplayL1DHits(t.Node, t.Core, hits)
	}
	if loads := s.Loads * s.Probes(n); loads > 0 {
		t.Stats.Loads += loads
		t.Stats.MemAccessCycles += sim.Cycles(loads) * t.Ctx.Plat.Cfg.Cache.Nodes[t.Node].Lat.L1
	}
	t.Stats.NodeInstructions[t.Node] += s.Retired(n)
	switch s.Points {
	case 3:
		sp.replayed += n
	case 2:
		sp.casReplayed += n
	case 1:
		sp.sockReplayed += n
	}
}
