package kernel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// sockRig is a spinRig whose poller polls a listening socket on a NIC of
// its own instead of ring words: each iteration is one TrySocketAccept,
// which never accepts, and then, as the production frontend does, one
// ring probe per ring (rings). A frame written into the RX ring
// (staleFrame, which the receive poll dequeues and drops) or a ring whose
// head passed its tail makes an iteration that is not idle, after which
// the poller works for a while.
type sockRig struct {
	*spinRig
	rx *interconnect.Ring
	// rings are the physical addresses of the probed rings' head words,
	// each ring's tail one line after its head.
	rings []mem.PhysAddr
	// workAt is the clock of the poller's last yield point before its
	// work, 0 until it first works.
	workAt sim.Cycles
	// armed: the poller's watch was still armed when its socket loop
	// ended, where the next probe starts.
	armed bool
}

// sockPollScenario is one disturbing event for a socket poller on x86
// core 0 under policy. irqCore is the core whose port built the NIC (the
// fabric's enqueues come through it). until is the caller's bound: the
// loop ends there. quantumYield has each work phase end a quantum's
// headroom short of the next probe's ring read, so that the probe reaches
// a quantum yield after it, and an injector writes the ring during that
// yield, in a segment ordered before the probe's clock.
type sockPollScenario struct {
	name         string
	policy       SchedPolicy
	irqCore      int
	until        sim.Cycles
	quantumYield bool
	spawn        func(r *sockRig)
	timed        bool // some park ends by itself
	// next: once the socket loop ends, the poller polls another word set,
	// r.words[0] of a page of its own, in SpinWait until it is non-zero.
	next bool
	// rings is the number of rings each iteration probes after its
	// syscall; before, when set, spawns threads ahead of the poller.
	rings  int
	before func(r *sockRig)
}

// staleFrame is an ACK for a connection the poller's stack does not have.
var staleFrame = net.EncodeFrame(&net.Frame{Kind: net.FrameACK, Src: net.Addr{Port: 9}, Dst: net.Addr{Port: 80}})

// write enqueues staleFrame into the poller's RX ring at clock at from
// (x86, core).
func (r *sockRig) write(name string, core int, at sim.Cycles) {
	r.raw(name, mem.NodeX86, core, at, func(pt *hw.Port) { r.rx.Send(pt, staleFrame) })
}

// ringStride spaces the probed rings: an odd number of lines, so that
// their control lines spread over the L1D's sets.
const ringStride = 37 * mem.LineSize

// ringWrite makes ring i's head pass its tail at clock at, from (x86,
// core).
func (r *sockRig) ringWrite(name string, core int, at sim.Cycles, i int) {
	r.raw(name, mem.NodeX86, core, at, func(pt *hw.Port) { pt.Write64(r.rings[i], pt.Read64(r.rings[i])+1) })
}

// ringWriteTied makes ring 2's head pass its tail, from x86 core 1, on the
// clock the poller's idle loop closes its probe of ring 1 and opens its
// probe of ring 2, in the first iteration past 700 000. Until the first
// event the loop repeats every T cycles from the clock it entered at: the
// syscall, two L1 hits per ring probe, the poll interval.
func (r *sockRig) ringWriteTied(name string) {
	r.ctx.Plat.Engine.Spawn(name, 600_000, func(th *sim.Thread) {
		if r.entered == 0 || r.entered >= 600_000 {
			panic(fmt.Sprintf("the poller entered its loop at %d", r.entered))
		}
		lat := r.ctx.Plat.Cfg.Cache.Nodes[mem.NodeX86].Lat.L1
		sys := sockSyscallCost + 2*lat
		period := sys + 2*sim.Cycles(len(r.rings))*lat + r.interval
		n := (700_000 - r.entered + period - 1) / period
		th.AdvanceTo(r.entered + n*period + sys + 4*lat)
		th.YieldPoint()
		pt := r.ctx.Plat.NewPort(mem.NodeX86, 1, th)
		pt.Write64(r.rings[2], pt.Read64(r.rings[2])+1)
		th.YieldPoint()
		r.ends[name] = th.Now()
	})
}

var sockPollScenarios = []sockPollScenario{
	{name: "rx write from another core", irqCore: 1, until: 2_000_000, spawn: func(r *sockRig) {
		r.write("writer", 1, 400_000)
		r.write("writer2", 1, 900_000)
	}},
	{name: "rx write through the poller's core", irqCore: 0, until: 2_000_000, spawn: func(r *sockRig) {
		r.write("writer", 0, 400_000)
		r.write("writer2", 0, 900_000)
	}},
	{name: "caller bound", irqCore: 1, until: 700_000, timed: true, spawn: func(r *sockRig) {
		r.write("writer", 1, 400_000)
	}},
	{name: "quantum yield inside a probe", irqCore: 1, until: 2_000_000, quantumYield: true, spawn: func(r *sockRig) {
		r.write("writer", 1, 400_000)
		r.ctx.Plat.Engine.Spawn("injector", 400_000, func(th *sim.Thread) {
			pt := r.ctx.Plat.NewPort(mem.NodeX86, 1, th)
			for {
				th.Advance(50)
				th.YieldPoint()
				if r.workAt > 0 && th.Now() > r.workAt {
					r.rx.Send(pt, staleFrame)
					r.ends["injector"] = th.Now()
					return
				}
			}
		})
	}},
	// The last park ends at the caller's bound, with no event to fire its
	// watch; the next probe reads a word on another line, which the
	// poller's loop parks on again until a write sets it.
	{name: "caller bound, then another word set", irqCore: 1, until: 700_000, timed: true, next: true, spawn: func(r *sockRig) {
		r.write("writer", 1, 400_000)
		r.write64("flag", mem.NodeX86, 1, 1_200_000, 0, 1)
	}},
	{name: "queued task", policy: SchedTimeSlice, irqCore: 1, until: 2_000_000, timed: true, spawn: func(r *sockRig) {
		r.queue("intruder", 400_000, 20_000)
		r.write("writer", 1, 1_500_000)
	}},
	// Ring probes after the syscall: the park may end inside an
	// iteration, which the poller then finishes.
	{name: "ring probes, rx write", irqCore: 1, until: 2_000_000, rings: 6, spawn: func(r *sockRig) {
		r.write("writer", 1, 400_000)
		r.write("writer2", 1, 900_000)
	}},
	{name: "ring probes, ring writes", irqCore: 1, until: 2_000_000, rings: 6, spawn: func(r *sockRig) {
		r.ringWrite("writer", 1, 400_000, 0)
		r.ringWrite("writer2", 1, 900_000, 5)
		r.ringWrite("writer3", 0, 1_300_000, 3)
	}},
	{name: "ring probes, queued task", policy: SchedTimeSlice, irqCore: 1, until: 2_000_000, rings: 6, timed: true, spawn: func(r *sockRig) {
		r.queue("intruder", 400_000, 20_000)
		r.ringWrite("writer", 1, 1_500_000, 2)
	}},
	// The write's segment ties with two yield points of a parked
	// iteration, a probe's close and the next one's open, whose loads the
	// write changes: a lower-ID writer runs before both, so that probe
	// sees it; a higher-ID one after that probe has read the ring.
	{name: "ring probes, ring write tied with two probes, lower ID", irqCore: 1, until: 2_000_000, rings: 6,
		before: func(r *sockRig) { r.ringWriteTied("writer") }, spawn: func(*sockRig) {}},
	{name: "ring probes, ring write tied with two probes, higher ID", irqCore: 1, until: 2_000_000, rings: 6,
		spawn: func(r *sockRig) { r.ringWriteTied("writer") }},
}

// newSockRig builds scenario sc's machine, its poller's idle polls
// parking or, with spin, spinning with parks forbidden, ready to run.
func newSockRig(tb testing.TB, sc sockPollScenario, spin bool) *sockRig {
	tb.Helper()
	r := &sockRig{spinRig: newSpinRig(tb, 2000, 0, spin)}
	r.s = NewScheduler(r.ctx, sc.policy, 2000)
	if sc.before != nil {
		sc.before(r)
	}
	nicBase := r.ctx.Plat.Layout().OwnedRegions(mem.NodeX86)[0].Start + 32<<20
	spawnScheduled(r.ctx, r.s, r.v, "poller", 0, 0, func(t *Task) error {
		r.poller = t
		nic := net.NewNIC(r.ctx.Plat.NewPort(mem.NodeX86, sc.irqCore, t.Th), 0, nicBase, net.DefaultNICConfig())
		fab := net.NewFabric(net.DefaultFabricConfig())
		fab.Attach(nic)
		r.ctx.Net = net.NewStack(nic, fab, 0)
		r.rx = nic.RX
		lfd, err := t.SocketListen(80)
		if err != nil {
			return err
		}
		var ring pgtable.VirtAddr
		if sc.rings > 0 {
			if ring, err = t.Proc.Mmap(uint64(sc.rings)*ringStride+mem.LineSize, VMARead|VMAWrite, "rings"); err != nil {
				return err
			}
			for i := range sc.rings {
				head := ring + pgtable.VirtAddr(i)*ringStride
				for _, a := range []pgtable.VirtAddr{head, head + mem.LineSize} {
					if err := t.Store(a, 8, 0); err != nil {
						return err
					}
				}
				pa, err := t.translate(head, false)
				if err != nil {
					return err
				}
				r.rings = append(r.rings, pa)
			}
		}
		var flag pgtable.VirtAddr
		if sc.next {
			if flag, err = t.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "flag"); err != nil {
				return err
			}
			if err := t.Store(flag, 8, 0); err != nil {
				return err
			}
			if r.words[0], err = t.translate(flag, false); err != nil {
				return err
			}
		}
		// The first poll brings the ring's control words into the L1D.
		if _, err := t.TrySocketAccept(lfd); err != nil {
			return err
		}
		idle := sockSyscallCost + 2*r.ctx.Plat.Cfg.Cache.Nodes[mem.NodeX86].Lat.L1
		// words and vals are the iteration's ring probes; passed is the
		// yield points of the iteration the last park passed (PollSock).
		var words []pgtable.VirtAddr
		var vals []uint64
		passed := 0
		r.entered = t.Th.Now()
		for t.Th.Now() < sc.until {
			t.BeginSockProbe()
			work := false
			if passed == 0 {
				start := t.Th.Now()
				if _, err := t.TrySocketAccept(lfd); err != nil {
					return err
				}
				work = t.Th.Now()-start != idle // the receive poll dropped a frame
			}
			words, vals = words[:0], vals[:0]
			for i := 1; i <= sc.rings && !work; i++ {
				if 2*i <= passed {
					continue // the park passed this probe
				}
				if 2*i-1 != passed {
					t.Th.YieldPoint()
				}
				head := ring + pgtable.VirtAddr(i-1)*ringStride
				h, err := t.Load(head, 8)
				if err != nil {
					return err
				}
				tl, err := t.Load(head+mem.LineSize, 8)
				if err != nil {
					return err
				}
				words, vals = append(words, head, head+mem.LineSize), append(vals, h, tl)
				if work = h != tl; work {
					if err := t.Store(head+mem.LineSize, 8, h); err != nil {
						return err
					}
				}
				t.Th.YieldPoint()
			}
			if work {
				r.served++
				r.returns = append(r.returns, t.Th.Now())
				t.Th.YieldPoint()
				r.workAt = t.Th.Now()
				if sc.quantumYield {
					t.Th.Advance(t.Th.YieldHeadroom() - sockSyscallCost - 1)
				} else {
					t.Compute(200)
				}
				passed = 0
				continue
			}
			passed = t.PollSock(r.interval, sc.until, words, vals)
		}
		r.armed = t.spin.watch.Armed()
		if sc.next {
			vals := make([]uint64, 1)
			if err := t.SpinWait([]pgtable.VirtAddr{flag}, vals, r.interval, func(v []uint64) bool { return v[0] == 0 }); err != nil {
				return err
			}
			r.returns = append(r.returns, t.Th.Now())
		}
		r.ends["poller"] = t.Th.Now()
		return nil
	}, r.errp())
	sc.spawn(r)
	return r
}

// run runs the rig's engine to the end.
func (r *sockRig) run(tb testing.TB) {
	tb.Helper()
	if err := r.ctx.Plat.Engine.Run(); err != nil {
		tb.Fatal(err)
	}
	for _, err := range r.errs {
		if *err != nil {
			tb.Fatal(*err)
		}
	}
}

// runSockPoll runs scenario sc with the poller's idle polls parking or,
// with spin, spinning.
func runSockPoll(t *testing.T, sc sockPollScenario, spin bool) *sockRig {
	t.Helper()
	r := newSockRig(t, sc, spin)
	r.run(t)
	return r
}

// TestPollSockMatchesSpinning runs each disturbing event on fresh machines
// with the socket poller's PollSock spinning (parks forbidden) and parking,
// under both scheduling policies, and requires the same clocks, task,
// cache and CPU counters and engine segment accounting from both — and
// that PollSock parked, with parks ending by themselves where the scenario
// has a bound, that the loop left no watch armed for the next probe, and
// that a SpinWait after it parked too. A leaked watch changes no counter
// here — the next probe's first access through the core's L1D fires it,
// and it only disarms — but it keeps every owned-line write hit on the
// directory path meanwhile (DESIGN §10, "Owned ways"), and a probe that
// made no such access would park on the old words.
func TestPollSockMatchesSpinning(t *testing.T) {
	for _, sc := range sockPollScenarios {
		for _, policy := range []SchedPolicy{SchedShared, SchedTimeSlice} {
			if sc.policy == SchedTimeSlice && policy == SchedShared {
				continue
			}
			sc := sc
			sc.policy = policy
			t.Run(fmt.Sprintf("%s/%v", sc.name, policy), func(t *testing.T) {
				spin := runSockPoll(t, sc, true)
				ran, _ := spin.poller.SockPolls()
				spin.spun(t, ran)
				got := runSockPoll(t, sc, false)
				if g, w := got.dump(), spin.dump(); g != w {
					t.Fatalf("PollSock diverges from the spinning loop\n--- parked\n%s--- spinning\n%s", g, w)
				}
				if spin.served == 0 {
					t.Fatal("the poller served nothing")
				}
				es := got.ctx.Plat.Engine.Stats
				_, replayed := got.poller.SockPolls()
				_, spinReplayed := got.poller.SpinYields()
				if replayed == 0 || es.Replayed != got.poller.ReplayedYields() {
					t.Fatalf("%d polls and %d SpinWait yield points replayed, the engine replayed %d, the poller's loops %d: PollSock never parked",
						replayed, spinReplayed, es.Replayed, got.poller.ReplayedYields())
				}
				if sc.timed && es.TimedParks == 0 {
					t.Fatal("no park ended by itself")
				}
				if got.armed {
					t.Fatal("the socket loop ended with its watch armed")
				}
				if sc.next && spinReplayed == 0 {
					t.Fatal("the SpinWait after the socket loop never parked")
				}
			})
		}
	}
}

// TestSockParkZeroAllocs requires socket-probe parking to allocate
// nothing: across 50 frames that wake a parked poller (each one a replay,
// a dropped frame and a new park) the process's allocation count does not
// move. The count starts once the frames have written every ring slot, so
// that no page of the ring is new. The rings=16 row is shaped like the
// production frontend: 16 ring probes after the syscall, a 33-point
// iteration and a 34-line watch, grown once before the count starts.
func TestSockParkZeroAllocs(t *testing.T) {
	for _, rings := range []int{0, 16} {
		t.Run(fmt.Sprintf("rings=%d", rings), func(t *testing.T) { sockParkZeroAllocs(t, rings) })
	}
}

func sockParkZeroAllocs(t *testing.T, rings int) {
	// As in TestSpinParkZeroAllocs: no collection, one P.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var replayed int64
	sc := sockPollScenario{name: "frames", irqCore: 1, until: 4_000_000, rings: rings, spawn: func(r *sockRig) {
		r.ctx.Plat.Engine.Spawn("writer", 600_000, func(th *sim.Thread) {
			pt := r.ctx.Plat.NewPort(mem.NodeX86, 1, th)
			for i := 1; i <= 120; i++ {
				if i == 70 {
					runtime.ReadMemStats(&before)
					_, replayed = r.poller.SockPolls()
				}
				th.YieldPoint()
				r.rx.Send(pt, staleFrame)
				th.YieldPoint()
				th.Advance(20_000)
			}
			runtime.ReadMemStats(&after)
			_, n := r.poller.SockPolls()
			replayed = n - replayed
		})
	}}
	r := runSockPoll(t, sc, false)
	if replayed == 0 || r.served != 120 {
		t.Fatalf("%d polls replayed, %d frames dropped: the poller did not park between them", replayed, r.served)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocations over 50 park/wake cycles", n)
	}
}

// BenchmarkSockProbePark is one parked idle stretch of a socket poller per
// op, the load generator's loop shape: a frame wakes the poller parked in
// PollSock, which drops it, works, and parks again until the next one.
func BenchmarkSockProbePark(b *testing.B) {
	const gap = 20_000
	sc := sockPollScenario{name: "bench", irqCore: 1, until: 300_000 + sim.Cycles(b.N+1)*gap, spawn: func(r *sockRig) {
		r.ctx.Plat.Engine.Spawn("writer", 300_000, func(th *sim.Thread) {
			pt := r.ctx.Plat.NewPort(mem.NodeX86, 1, th)
			for i := 0; i < b.N; i++ {
				th.YieldPoint()
				r.rx.Send(pt, staleFrame)
				th.YieldPoint()
				th.Advance(gap)
			}
		})
	}}
	r := newSockRig(b, sc, false)
	b.ReportAllocs()
	b.ResetTimer()
	r.run(b)
	_, replayed := r.poller.SockPolls()
	if replayed < int64(b.N) {
		b.Fatalf("%d polls replayed over %d frames: the poller did not park between them", replayed, b.N)
	}
	b.ReportMetric(float64(replayed)/float64(b.N), "replayed/op")
}
