package hw

// Tests and host-cost guards for Port.Compute's instruction-fetch hit run.
// The run is a host-side shortcut only, so the oracle here is Compute as it
// stood before the run existed — one full charge per fetch — and everything
// simulated must agree with it exactly.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// oracleWindow and computeOracle are CodeWindow and Port.Compute from before
// the hit run, kept verbatim.
type oracleWindow struct {
	Base mem.PhysAddr
	Size uint64
	off  uint64
}

func (w *oracleWindow) next() mem.PhysAddr {
	a := w.Base + mem.PhysAddr(w.off)
	w.off += mem.LineSize
	if w.off >= w.Size {
		w.off = 0
	}
	return a
}

func computeOracle(pt *Port, n int64, pc *oracleWindow) {
	if n <= 0 {
		return
	}
	cpi := pt.Plat.Cfg.CPI[pt.Node]
	// One ifetch per line's worth of instructions (4-byte instructions).
	const instPerLine = mem.LineSize / 4
	for i := int64(0); i < n; i += instPerLine {
		batch := n - i
		if batch > instPerLine {
			batch = instPerLine
		}
		addr := pc.next()
		pt.Charge(cache.Ifetch, addr, mem.LineSize)
		extra := sim.Cycles(float64(batch)*cpi + 0.5)
		if extra > 0 {
			extra-- // the ifetch itself retires one instruction's worth
		}
		pt.T.Advance(extra)
	}
}

type computeCase struct {
	quantum sim.Cycles
	n       int64
	cpi     float64
	atomic  bool
}

// computeOutcome is everything simulated a computeCase run leaves behind.
type computeOutcome struct {
	clocks [3]sim.Cycles
	// yields lists, per computing thread, the clock at every yield point
	// that ran its preempt hook.
	yields [2][]sim.Cycles
	engine sim.EngineStats
	stats  [2]cache.Stats
	cores  [2][2]cache.CoreStats
	events []trace.Event
}

// runComputeCase runs two threads computing in the same 2 KiB of code on
// the two cores of node 0 while a thread on node 1 keeps storing into that
// code (snoop-invalidating lines out from under both), under a tracer. Each
// round also runs a short routine laid out right after the window, so the
// lines past the window's end are resident: a hit run that walked past the
// end instead of wrapping would find them.
func runComputeCase(t *testing.T, tc computeCase, oracle bool) computeOutcome {
	t.Helper()
	const (
		winBase   = mem.PhysAddr(0x1000)
		winLines  = 32
		tailBase  = winBase + winLines*mem.LineSize
		tailLines = 4
	)
	cfg := DefaultConfig(mem.Shared)
	cfg.Cache.Nodes[0].Cores, cfg.Cache.Nodes[1].Cores = 2, 2
	cfg.CPI = [2]float64{tc.cpi, tc.cpi}
	buf := trace.NewBuffer()
	cfg.Tracer = buf
	plat := NewPlatform(cfg)
	plat.Engine.Quantum = tc.quantum

	// About the same simulated span whatever n is.
	rounds := int(max(3, 6000/tc.n))
	var out computeOutcome
	for core := 0; core < 2; core++ {
		plat.Engine.Spawn(fmt.Sprintf("compute%d", core), 0, func(th *sim.Thread) {
			th.SetPreempt(func() { out.yields[core] = append(out.yields[core], th.Now()) })
			pt := plat.NewPort(mem.NodeX86, core, th)
			win := NewCodeWindow(winBase, winLines*mem.LineSize)
			owin := &oracleWindow{Base: winBase, Size: winLines * mem.LineSize}
			tail := NewCodeWindow(tailBase, tailLines*mem.LineSize)
			otail := &oracleWindow{Base: tailBase, Size: tailLines * mem.LineSize}
			for r := 0; r < rounds; r++ {
				if tc.atomic {
					th.BeginAtomic()
				}
				if oracle {
					computeOracle(pt, tc.n, owin)
					computeOracle(pt, tailLines*16, otail)
				} else {
					pt.Compute(tc.n, win)
					pt.Compute(tailLines*16, tail)
				}
				if tc.atomic {
					th.EndAtomic()
				}
			}
			out.clocks[core] = th.Now()
		})
	}
	plat.Engine.Spawn("storer", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeArm, 0, th)
		for i := 0; i < 60; i++ {
			pt.Write64(winBase+mem.PhysAddr(i*7%winLines)*mem.LineSize, uint64(i))
			th.Advance(211)
		}
		out.clocks[2] = th.Now()
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	out.engine = plat.Engine.Stats
	for n := mem.NodeID(0); n < 2; n++ {
		out.stats[n] = plat.Caches.Stats(n)
		for c := 0; c < 2; c++ {
			out.cores[n][c] = plat.Caches.CoreStats(n, c)
		}
	}
	out.events = buf.Events
	return out
}

// TestComputeMatchesPerFetchOracle: clocks, yield points, engine segment
// accounting, cache counters and the event stream of Compute equal the
// per-fetch oracle's, across quanta from "every fetch crosses it" to the
// default, counts around the 16-instruction batch edge, CPIs whose batch
// cost rounds differently, and inside atomic sections.
func TestComputeMatchesPerFetchOracle(t *testing.T) {
	for _, quantum := range []sim.Cycles{19, 50, 1000, 20000} {
		for _, n := range []int64{1, 15, 16, 17, 20000, 20001} {
			for _, cpi := range []float64{1.0, 0.6, 2.5} {
				for _, atomic := range []bool{false, true} {
					tc := computeCase{quantum, n, cpi, atomic}
					t.Run(fmt.Sprintf("q=%d/n=%d/cpi=%v/atomic=%v", quantum, n, cpi, atomic), func(t *testing.T) {
						want := runComputeCase(t, tc, true)
						got := runComputeCase(t, tc, false)
						if got.clocks != want.clocks {
							t.Errorf("final clocks %v, oracle %v", got.clocks, want.clocks)
						}
						for c := range want.yields {
							if !slices.Equal(got.yields[c], want.yields[c]) {
								t.Errorf("compute%d yielded at %v, oracle at %v", c, got.yields[c], want.yields[c])
							}
						}
						if got.engine != want.engine {
							t.Errorf("engine stats\n got %+v\nwant %+v", got.engine, want.engine)
						}
						if got.stats != want.stats {
							t.Errorf("cache stats\n got %+v\nwant %+v", got.stats, want.stats)
						}
						if got.cores != want.cores {
							t.Errorf("core stats\n got %+v\nwant %+v", got.cores, want.cores)
						}
						if len(got.events) != len(want.events) {
							t.Fatalf("%d events, oracle %d", len(got.events), len(want.events))
						}
						for i := range want.events {
							if got.events[i] != want.events[i] {
								t.Fatalf("event %d: %+v, oracle %+v", i, got.events[i], want.events[i])
							}
						}
						if want.stats[0].SnoopInvalidations+want.stats[1].SnoopInvalidations == 0 {
							t.Error("the storer invalidated nothing: the case no longer disturbs the window")
						}
					})
				}
			}
		}
	}
}

// residentCompute returns a port on a running thread whose 8 KiB window
// (the kernel's task window) is already resident in L1I, and hands it to
// body. The default quantum and CPI apply.
func residentCompute(tb testing.TB, body func(pt *Port, win *CodeWindow)) {
	tb.Helper()
	plat := NewPlatform(DefaultConfig(mem.Shared))
	plat.Engine.Spawn("compute", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		win := NewCodeWindow(0x1000, 8<<10)
		pt.Compute(20000, win)
		body(pt, win)
	})
	if err := plat.Engine.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkComputeResident is the host cost of one Compute(20000) — 1250
// fetches, the cluster workload's per-request compute — on a resident
// window.
func BenchmarkComputeResident(b *testing.B) {
	residentCompute(b, func(pt *Port, win *CodeWindow) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pt.Compute(20000, win)
		}
	})
}

func TestComputeResidentZeroAllocs(t *testing.T) {
	residentCompute(t, func(pt *Port, win *CodeWindow) {
		if avg := testing.AllocsPerRun(100, func() { pt.Compute(20000, win) }); avg != 0 {
			t.Errorf("steady-state Compute allocates %.1f times per call, want 0", avg)
		}
		hits := pt.Plat.Caches.Stats(mem.NodeX86)
		if hits.L1IHits*100 < hits.L1IAccesses*99 {
			t.Errorf("window not resident: %d hits of %d fetches", hits.L1IHits, hits.L1IAccesses)
		}
	})
}
