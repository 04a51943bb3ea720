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
				t.armSpin(nil, addrs, nil, false)
			}
			sp.ran++
			t.Th.YieldPoint()
		}
		if busy {
			return nil
		}
		sp.ran++
		pos = atLoopTop
		// The loop top at the poll's clock, the probe's close, the poll.
		n := int64(len(addrs))
		pts := sp.table(3)
		pts[0] = sim.SpinPoint{}
		pts[1] = sim.SpinPoint{At: sim.Cycles(n) * lat, Hits: n, Loads: n}
		pts[2] = pts[1]
		pts[2].At += interval
		j := sp.poll("spin", nil, interval, pts, math.MaxInt64)
		sp.replayed += j
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
				t.armSpin([]mem.PhysAddr{pa}, nil, nil, true)
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
		pts := sp.table(2)
		pts[0] = sim.SpinPoint{At: lat + hw.AtomicPenalty, Hits: 1}
		pts[1] = pts[0]
		pts[1].At += interval
		j := sp.poll("lock:cas", w, interval, pts, math.MaxInt64)
		sp.casReplayed += j
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
	sp.sockAt = probeMark{clock: t.Th.Now(), headroom: t.Th.YieldHeadroom(), memCycles: t.Stats.MemAccessCycles,
		yields: t.Th.Yields(), loads: t.Stats.Loads, tlbMisses: t.Stats.TLBMisses, instr: t.instrTotal(),
		l1d: t.Ctx.Plat.Caches.L1DAccesses(t.Node, t.Core)}
}

// probeMark is a task's clock, yield headroom and counters, and its
// core's L1D accesses, at BeginSockProbe, against which PollSock checks
// the probe.
type probeMark struct {
	clock, headroom, memCycles           sim.Cycles
	yields, loads, tlbMisses, instr, l1d int64
}

// PollSock is the poll of a socket poll loop's iteration that found
// nothing to do, the loop's
//
//	t.Th.Advance(interval)
//	t.Th.YieldPoint()
//
// after a probe, from BeginSockProbe on, of non-blocking socket syscalls
// (TryRecvSock, TrySocketAccept) that each took its idle path — nothing
// dequeued from the NIC's RX ring, nothing accepted, nothing buffered and
// no end of stream — followed by ring probes that each found nothing to
// do. A ring probe is a yield point, a load of each of two words, and
// another yield point; words holds every probe's two words, in probe
// order, and vals the values it loaded. until is the first clock at which
// the loop's next iteration would act without a socket or ring event: a
// timer, such as the load generator's next arrival (math.MaxInt64: none).
// The caller vouches that the next iteration would repeat this one until
// such an event or until.
//
// The loop parks (sim.Thread.ParkSpin) instead of spinning when the task
// may park (mayPark) and the counters show exactly that probe: k
// syscalls, every one idle, then 2m loads for m = len(words)/2, every one
// a TLB and L1D hit, and 2m yield points; k syscall entries plus 2k L1D
// hits (one on each of the RX ring's head and tail words per syscall) and
// the 2m hits' cycles; k syscalls' instructions and the 2m loads; and no
// quantum yield. The last holds per segment: the syscalls' segment fits
// the headroom BeginSockProbe saw, and every later segment starts at a
// yield point. A read watch on the RX ring's two control lines and on
// the words' lines catches what would change the next probe: the fabric's
// enqueue writes the RX head line, another local task's dequeue writes the
// RX tail line, a ring's producer or consumer writes its words, and any
// other thread's access through the core's L1D fires it too (DESIGN.md
// §6, "Parking"). Until then every skipped iteration would be the same
// idle probe, so when the task wakes, the syscalls' instructions and L1D
// hits and the loads' are replayed in closed form, with the slice
// arithmetic under time-slicing, and the loop resumes at its first yield
// point ordered after the disturbing segment, or at the first at or after
// until. Every simulated number is the same as spinning.
//
// The watch is armed here, after the probe's last yield point, so other
// threads ran between the probe's reads and the arm. The arm therefore
// also requires that the RX ring is still empty, that every word still
// holds the value the probe loaded, and that the core's L1D saw no access
// but the probe's own 2k+2m; the lines must still be resident, as for
// every watch.
//
// The loop's first yield point after the park may lie inside an
// iteration. PollSock returns how many of that iteration's yield points
// the park passed, 2i-1 for ring probe i's open and 2i for its close (0:
// the loop resumes at a poll). The caller runs the rest of that
// iteration: the syscalls and the probes the park passed all found
// nothing to do, so it skips them, and a probe whose open the park passed
// starts at its loads. Such an iteration makes no syscall, so its own poll
// does not park.
func (t *Task) PollSock(interval, until sim.Cycles, words []pgtable.VirtAddr, vals []uint64) (passed int) {
	sp := t.spinLoop()
	lat := t.Ctx.Plat.Cfg.Cache.Nodes[t.Node].Lat.L1
	k, m := sp.sockIdle, int64(len(words)/2)
	sys, probes := sim.Cycles(k)*(sockSyscallCost+2*lat), sim.Cycles(2*m)*lat
	if at := &sp.sockAt; sp.sockBegun && k > 0 && sp.sockCalls == k && len(words)%2 == 0 && len(vals) == len(words) &&
		sys < at.headroom && t.Th.Now()-at.clock == sys+probes && t.Th.Yields()-at.yields == 2*m &&
		t.Stats.Loads-at.loads == 2*m && t.Stats.MemAccessCycles-at.memCycles == probes && t.Stats.TLBMisses == at.tlbMisses &&
		t.instrTotal()-at.instr == k*kinstrSockSyscall+2*m &&
		t.Ctx.Plat.Caches.L1DAccesses(t.Node, t.Core)-at.l1d == 2*k+2*m {
		head, tail := t.Ctx.Net.NIC.RX.Control()
		if phys := t.Ctx.Plat.Phys; phys.Read64(head) == phys.Read64(tail) {
			t.armSpin([]mem.PhysAddr{head, tail}, words, vals, false)
		}
	}
	sp.sockBegun = false
	sp.sockRan++
	var pts []sim.SpinPoint
	if sp.watch.Armed() {
		// After the syscalls, each ring probe's open and close, then the
		// poll.
		pts = sp.table(int(2*m + 1))
		p := sim.SpinPoint{At: sys, Hits: 2 * k, Instr: kinstrSockSyscall * k}
		for i := range m {
			pts[2*i] = p
			p.At += 2 * lat
			p.Hits += 2
			p.Loads += 2
			pts[2*i+1] = p
		}
		p.At += interval
		pts[2*m] = p
	}
	j := sp.poll("sock-poll", nil, interval, pts, until)
	if j == 0 {
		return 0
	}
	// Yield points 0, n, 2n, … of the park are polls.
	n := int64(len(pts))
	sp.sockReplayed += (j-1)/n + 1
	sp.sockPoints += j
	return int(j % n)
}

// poll is the poll that ends a wait loop's idle iteration: it advances
// interval cycles and parks the loop whose iteration is the table pts from
// there (sim.Spin's C0), with its Bound the first yield point at or after
// until (math.MaxInt64: none), if the last probe armed the watch; it
// disarms the watch, and runs the poll's yield point if the loop did not
// park. It returns the yield point the loop resumes at, 0 if it did not
// park.
func (sp *spinLoop) poll(reason string, w *sim.Waiters, interval sim.Cycles, pts []sim.SpinPoint, until sim.Cycles) (j int64) {
	th := sp.t.Th
	th.Advance(interval)
	parked := false
	if sp.watch.Armed() {
		s := sim.Spin{C0: th.Now(), Points: pts, Bound: math.MaxInt64}
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

// table returns the loop's iteration table, n points long, for the next
// poll to fill; it is grown once and reused, so parking allocates
// nothing.
func (sp *spinLoop) table(n int) []sim.SpinPoint {
	sp.pts = slices.Grow(sp.pts[:0], n)[:n]
	return sp.pts
}

// spinLoop is a task's wait-loop state, its scheduler's SpinHook and its
// parked probes' SpinProbe, allocated by the task's first wait loop,
// socket syscall or Scheduler.Attach and reused by every later park.
type spinLoop struct {
	t     *Task
	watch cache.Watch
	// pas are the watched words' physical addresses and pages the pages
	// of those the probe reached through the TLB, for shootdowns; pts is
	// the parked loop's iteration table (sim.Spin). All three are grown
	// once and reused.
	pas   []mem.PhysAddr
	pages []pgtable.VirtAddr
	pts   []sim.SpinPoint
	// ran and replayed count the SpinWait yield points run and replayed,
	// casReplayed the SpinCAS yield points replayed, sockRan and
	// sockReplayed the PollSock polls run and replayed, and sockPoints
	// the PollSock yield points replayed.
	ran, replayed, casReplayed, sockRan, sockReplayed, sockPoints int64
	// sockCalls and sockIdle count the socket syscalls since the last
	// BeginSockProbe and those of them that took their idle path; sockAt
	// is the task's state there, and sockBegun is set until the next poll.
	sockCalls, sockIdle int64
	sockAt              probeMark
	sockBegun           bool
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

// ReplayedYields returns how many yield points the task's SpinWait,
// SpinCAS and PollSock loops replayed parked: its share of
// sim.EngineStats.Replayed, beside the flag spins' LockReplayed.
// Host-side observability, like SpinYields.
func (t *Task) ReplayedYields() int64 {
	if t.spin == nil {
		return 0
	}
	return t.spin.replayed + t.spin.casReplayed + t.spin.sockPoints
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

// armSpin arms the loop's watch after a probe that hit throughout and
// found nothing to do — a write watch if the probes are writes — if the
// task may park at all: on the words at the physical addresses pas (a
// lock word, the NIC's ring) and on those at addrs, which the probe
// reached through the TLB on pages it keeps for shootdowns. vals, unless
// nil, are the values the probe loaded from addrs, which the words must
// still hold.
func (t *Task) armSpin(pas []mem.PhysAddr, addrs []pgtable.VirtAddr, vals []uint64, write bool) {
	sp := t.spin
	if !t.mayPark() || len(pas)+len(addrs) == 0 {
		return
	}
	sp.pas, sp.pages = append(sp.pas[:0], pas...), sp.pages[:0]
	for i, a := range addrs {
		pg := a &^ (mem.PageSize - 1)
		fr, _, _, ok := t.tlb.lookup(pg)
		if !ok {
			sp.pages = sp.pages[:0]
			return
		}
		pa := fr + mem.PhysAddr(a-pg)
		if vals != nil && t.Ctx.Plat.Phys.Read64(pa) != vals[i] {
			sp.pages = sp.pages[:0]
			return
		}
		sp.pages = append(sp.pages, pg)
		sp.pas = append(sp.pas, pa)
	}
	if !t.Ctx.Plat.Caches.Arm(&sp.watch, t.Node, t.Core, sp.pas, write, sp.fire) {
		sp.pages = sp.pages[:0]
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
	return slices.Contains(sp.pages, pva)
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

// ReplayProbes counts what the task's parked loop s did up to yield
// point n (sim.SpinProbe): its L1D hits on the core's counters; a memory
// or ring probe's loads, each an L1D hit, and a socket probe's syscall
// instructions on the task's.
func (sp *spinLoop) ReplayProbes(s sim.Spin, n int64) {
	t := sp.t
	if hits := s.L1DHits(n); hits > 0 {
		t.Ctx.Plat.Caches.ReplayL1DHits(t.Node, t.Core, hits)
	}
	if loads := s.Loads(n); loads > 0 {
		t.Stats.Loads += loads
		t.Stats.MemAccessCycles += sim.Cycles(loads) * t.Ctx.Plat.Cfg.Cache.Nodes[t.Node].Lat.L1
	}
	t.Stats.NodeInstructions[t.Node] += s.Retired(n)
}
