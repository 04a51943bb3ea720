package sim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/trace"
)

// spinLockRace is a lock handed back and forth: the holder takes the flag
// for hold cycles, rounds times, and the waiter spins for it in between,
// parking on every round. round, when non-nil, runs on the holder at the
// start of each round. hook, when non-nil, is the SpinHook of a
// preemption hook the waiter installs, which does nothing.
func spinLockRace(rounds int, round func(i int), hook SpinHook) *Engine {
	const hold, interval = 10 * 100, 100
	e := NewEngine()
	var (
		held bool
		w    Waiters
	)
	e.Spawn("holder", 0, func(t *Thread) {
		for i := 0; i < rounds; i++ {
			if round != nil {
				round(i)
			}
			held = true
			t.Advance(hold)
			t.YieldPoint() // the release is a segment of its own
			w.Disturb()
			held = false
			t.Advance(interval / 2)
			t.YieldPoint()
		}
	})
	e.Spawn("waiter", 1, func(t *Thread) {
		if hook != nil {
			t.SetPreempt(func() {})
			t.SetSpinHook(hook)
		}
		for i := 0; i < rounds; i++ {
			t.SpinWhile("lock:test", &w, interval, func() bool { return held })
			t.Advance(interval)
			t.YieldPoint() // the holder retakes the lock before the next wait
		}
	})
	return e
}

// countTracer counts the events it receives and allocates nothing.
type countTracer struct{ n int64 }

func (c *countTracer) Emit(trace.Event) { c.n++ }

// boundHook is a SpinHook whose hook acts at yield point b of every park.
type boundHook int64

func (b boundHook) PureUntil(Spin) int64 { return int64(b) }
func (boundHook) Replay(Spin, int64)     {}

// TestSpinWhileZeroAllocs requires lock-spin parking to allocate nothing:
// across 50 park/disturb cycles, once the waiter list and the thread's
// wake exist, the process's allocation count does not move. Under a hook
// that acts at the fourth poll of each park, every round's first park
// ends there by itself (a timed park), and the next one at the release.
// Under a tracer the waiter parks as it does untraced.
func TestSpinWhileZeroAllocs(t *testing.T) {
	// No collection during the run: the runtime's work after one (starting
	// mark workers, background cleanups) allocates on its own goroutines,
	// which ReadMemStats counts too. One P, as in testing.AllocsPerRun:
	// ReadMemStats stops the world, and restarting it with an idle P may
	// start an OS thread for it, whose runtime structures count as mallocs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name           string
		hook           SpinHook
		traced         bool
		replays, timed int64 // at least, per round
	}{
		{"no hook", nil, false, 8, 0},
		{"timed park", boundHook(4), false, 4, 1},
		{"traced", nil, true, 8, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			var e *Engine
			var tr countTracer
			var replayed, timed, events int64
			e = spinLockRace(61, func(i int) {
				switch i {
				case 10:
					runtime.ReadMemStats(&before)
					replayed, timed, events = e.Stats.LockReplayed, e.Stats.TimedParks, tr.n
				case 60:
					runtime.ReadMemStats(&after)
					replayed, timed, events = e.Stats.LockReplayed-replayed, e.Stats.TimedParks-timed, tr.n-events
				}
			}, c.hook)
			if c.traced {
				e.Tracer = &tr
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if replayed < 50*c.replays || timed < 50*c.timed {
				t.Fatalf("%d yield points replayed and %d timed parks over 50 rounds: the waiter did not park on each", replayed, timed)
			}
			if c.traced && events == 0 {
				t.Fatal("the tracer received no event over the 50 rounds")
			}
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("%d allocations over 50 park/disturb cycles", n)
			}
		})
	}
}

// BenchmarkSpinWhile is one lock-spin park and one disturb per op: the
// waiter parks for a lock held ten polls, and the release's disturb skips
// the polls in between in closed form.
func BenchmarkSpinWhile(b *testing.B) {
	e := spinLockRace(b.N, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Stats.LockReplayed < 8*int64(b.N) {
		b.Fatalf("%d yield points replayed over %d parks", e.Stats.LockReplayed, b.N)
	}
}

// legacySpin is a parked loop's schedule as it was before tables, with
// Points yield points per iteration: the poll alone (1), a CAS's close
// and the poll (2), or the loop top, the probe's close and the poll (3).
// Its closed forms are an oracle for the tables the kernel builds.
type legacySpin struct {
	C0, Interval, Probe        Cycles
	Points, Hits, Loads, Instr int64
}

func (s legacySpin) clock(j int64) Cycles {
	c := s.C0 + Cycles(j/s.Points)*(s.Probe+s.Interval)
	if s.Points > 1 && j%s.Points == s.Points-1 {
		c += s.Probe
	}
	return c
}

func (s legacySpin) probes(j int64) int64 {
	if s.Points == 1 {
		return j
	}
	return (j + 1) / s.Points
}

// table is the Spin the kernel builds for the legacy shape.
func (s legacySpin) table() Spin {
	close := SpinPoint{At: s.Probe, Hits: s.Hits, Loads: s.Loads, Instr: s.Instr}
	poll := close
	poll.At += s.Interval
	var pts []SpinPoint
	switch s.Points {
	case 1:
		pts = []SpinPoint{poll}
	case 2:
		pts = []SpinPoint{close, poll}
	case 3:
		pts = []SpinPoint{{}, close, poll}
	}
	return Spin{C0: s.C0, Points: pts, Bound: math.MaxInt64}
}

// walkPoint is one yield point of a brute-force walk of a Spin's table.
type walkPoint struct {
	clock                Cycles
	hits, loads, retired int64
}

// walk steps through the first n yield points of s one table entry at a
// time, adding each entry's increments over the one before it (the
// previous iteration's poll for the first): no division, no product.
func walk(s Spin, n int64) []walkPoint {
	out := []walkPoint{{clock: s.C0}}
	prev := SpinPoint{}
	for j := int64(1); j < n; j++ {
		r := (j - 1) % int64(len(s.Points))
		if r == 0 {
			prev = SpinPoint{}
		}
		p, w := s.Points[r], out[j-1]
		w.clock += p.At - prev.At
		w.hits += p.Hits - prev.Hits
		w.loads += p.Loads - prev.Loads
		w.retired += p.Loads + p.Instr - prev.Loads - prev.Instr
		out = append(out, w)
		prev = p
	}
	return out
}

// TestSpinFirstAt checks a parked loop's schedule against a brute-force
// walk of its table: Clock, L1DHits, Loads and Retired at every yield
// point, FirstAt(c) the first j with Clock(j) >= c at every clock from
// below C0 to the last point walked, and FirstWith(i) the first j with
// Retired(j) >= i (math.MaxInt64 if none). The tables are the legacy
// shapes over several C0, intervals, probe latencies and load and syscall
// counts, also checked against the legacy closed forms; the production
// frontend's socket-plus-ring-probe shape; and random tables, where
// equal-clock neighbours, zero-count stretches and points at offset 0 are
// common, so ties at a poll, at a probe's close and between two
// neighbours are all covered.
func TestSpinFirstAt(t *testing.T) {
	s := legacySpin{C0: 1000, Interval: 150, Points: 1}.table()
	for _, c := range []struct {
		at   Cycles
		want int64
	}{{0, 0}, {1000, 0}, {1001, 1}, {1150, 1}, {1151, 2}, {1300, 2}} {
		if got := s.FirstAt(c.at); got != c.want {
			t.Errorf("FirstAt(%d) = %d, want %d", c.at, got, c.want)
		}
	}

	// A CAS probe's charge is an L1 hit plus the 12-cycle atomic penalty
	// (hw.AtomicPenalty, restated: hw imports sim); a socket probe's
	// syscall (kernel.Task.PollSock) costs 120 cycles and two L1 hits and
	// retires 90 instructions (the kernel's socket syscall costs).
	const atomicPenalty, sockCost, sockInstr = 12, 120, 90
	const n = 120 // yield points walked
	var legacy []legacySpin
	var spins []Spin
	for _, c0 := range []Cycles{0, 1000, 12345} {
		for _, interval := range []Cycles{1, 60, 150, 997} {
			legacy = append(legacy, legacySpin{C0: c0, Interval: interval, Points: 1})
			for _, lat := range []Cycles{1, 4} {
				legacy = append(legacy, legacySpin{C0: c0, Interval: interval, Probe: lat + atomicPenalty, Points: 2, Hits: 1})
				for _, loads := range []int64{1, 2, 4, 9} {
					legacy = append(legacy, legacySpin{C0: c0, Interval: interval, Probe: Cycles(loads) * lat, Points: 3, Hits: loads, Loads: loads})
				}
				for _, k := range []int64{1, 5} {
					legacy = append(legacy, legacySpin{C0: c0, Interval: interval, Probe: Cycles(k) * (sockCost + 2*lat), Points: 1, Hits: 2 * k, Instr: sockInstr * k})
					// k syscalls, then m ring probes of two L1-hit loads.
					for _, m := range []int64{1, 3, 16} {
						sys := SpinPoint{At: Cycles(k) * (sockCost + 2*lat), Hits: 2 * k, Instr: sockInstr * k}
						pts := []SpinPoint{sys}
						for i := int64(1); i <= m; i++ {
							p := sys
							p.At += Cycles(2*i) * lat
							p.Hits += 2 * i
							p.Loads += 2 * i
							pts = append(pts, p)
							if i < m {
								pts = append(pts, p)
							}
						}
						poll := pts[len(pts)-1]
						poll.At += interval
						spins = append(spins, Spin{C0: c0, Points: append(pts, poll)})
					}
				}
			}
		}
	}
	for _, l := range legacy {
		s := l.table()
		spins = append(spins, s)
		for j := int64(0); j < n; j++ {
			if s.Clock(j) != l.clock(j) || s.L1DHits(j) != l.Hits*l.probes(j) || s.Loads(j) != l.Loads*l.probes(j) ||
				s.Retired(j) != (l.Loads+l.Instr)*l.probes(j) {
				t.Fatalf("%+v: yield point %d at clock %d with %d hits, %d loads and %d instructions; the legacy shape's at %d with %d probes",
					l, j, s.Clock(j), s.L1DHits(j), s.Loads(j), s.Retired(j), l.clock(j), l.probes(j))
			}
		}
	}
	r := NewRNG(7)
	for i := 0; i < 400; i++ {
		pts := make([]SpinPoint, 1+r.Intn(9))
		var p SpinPoint
		for k := range pts {
			// Half the steps keep the clock, and most keep some count.
			if r.Intn(2) == 0 || k == len(pts)-1 {
				p.At += Cycles(1 + r.Intn(40))
			}
			p.Hits += int64(r.Intn(3))
			p.Loads += int64(r.Intn(2))
			p.Instr += int64(r.Intn(3)) * int64(r.Intn(2))
			pts[k] = p
		}
		if r.Intn(4) == 0 {
			pts[0] = SpinPoint{} // a loop top at the poll's clock
		}
		spins = append(spins, Spin{C0: Cycles(r.Intn(500)), Points: pts})
	}

	first := func(ok func(j int64) bool) int64 {
		for j := int64(0); j < n; j++ {
			if ok(j) {
				return j
			}
		}
		return math.MaxInt64
	}
	for _, s := range spins {
		w := walk(s, n)
		for j, p := range w {
			j := int64(j)
			if got := (walkPoint{s.Clock(j), s.L1DHits(j), s.Loads(j), s.Retired(j)}); got != p {
				t.Fatalf("%+v: yield point %d is %+v, the walk finds %+v", s, j, got, p)
			}
		}
		for c := s.C0 - 2; c <= w[n-1].clock; c++ {
			if got, want := s.FirstAt(c), first(func(j int64) bool { return w[j].clock >= c }); got != want {
				t.Fatalf("%+v: FirstAt(%d) = %d, the walk finds %d", s, c, got, want)
			}
		}
		for i := int64(-1); i <= w[n-1].retired+1; i++ {
			want := first(func(j int64) bool { return w[j].retired >= i })
			if want == math.MaxInt64 && s.Retired(n) > 0 {
				continue // beyond the walk
			}
			if got := s.FirstWith(i); got != want {
				t.Fatalf("%+v: FirstWith(%d) = %d, the walk finds %d", s, i, got, want)
			}
		}
	}
}
