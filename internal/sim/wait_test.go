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

// TestSpinFirstAt checks a parked loop's schedule against linear scans of
// its yield points: FirstAt(c) is the first j with Clock(j) >= c, and
// FirstWith(i) the first j with Retired(j) >= i (math.MaxInt64 if none);
// L1DHits grows by Hits exactly at the yield points that close a probe:
// Probe cycles after the one before, or every poll in a loop with one
// yield point per iteration. All four shapes run over several C0,
// intervals, probe latencies and load and syscall counts, at every clock
// from below C0 to the last yield point scanned, so ties at a poll
// (r == 0) and at a probe's close (r == Probe) are covered, and so are
// the two yield points a memory-probe loop has at one clock.
func TestSpinFirstAt(t *testing.T) {
	s := Spin{C0: 1000, Interval: 150, Points: 1}
	for _, c := range []struct {
		at   Cycles
		want int64
	}{{0, 0}, {1000, 0}, {1001, 1}, {1150, 1}, {1151, 2}, {1300, 2}} {
		if got := s.FirstAt(c.at); got != c.want {
			t.Errorf("FirstAt(%d) = %d, want %d", c.at, got, c.want)
		}
	}

	// maxWatchLines is cache.MaxWatchLines, the most words a parked
	// kernel.Task.SpinWait polls (cache imports sim, so it is restated);
	// a CAS probe's charge is an L1 hit plus the 12-cycle atomic penalty
	// (hw.AtomicPenalty, restated for the same reason); a socket probe's
	// syscall (kernel.Task.PollSock) costs 120 cycles and two L1 hits and
	// retires 90 instructions (the kernel's socket syscall costs).
	const maxWatchLines, atomicPenalty, sockCost, sockInstr = 4, 12, 120, 90
	var spins []Spin
	for _, c0 := range []Cycles{0, 1000, 12345} {
		for _, interval := range []Cycles{1, 60, 150, 997} {
			spins = append(spins, Spin{C0: c0, Interval: interval, Points: 1})
			for _, lat := range []Cycles{1, 4} {
				spins = append(spins, Spin{C0: c0, Interval: interval, Probe: lat + atomicPenalty, Points: 2, Hits: 1})
				for _, loads := range []int64{1, 2, maxWatchLines} {
					spins = append(spins, Spin{C0: c0, Interval: interval, Probe: Cycles(loads) * lat, Points: 3, Hits: loads, Loads: loads})
				}
				for _, k := range []int64{1, 5} {
					spins = append(spins, Spin{C0: c0, Interval: interval, Probe: Cycles(k) * (sockCost + 2*lat), Points: 1, Hits: 2 * k, Instr: sockInstr * k})
				}
			}
		}
	}
	const n = 40 // yield points scanned
	first := func(ok func(j int64) bool) int64 {
		for j := int64(0); j < n; j++ {
			if ok(j) {
				return j
			}
		}
		return math.MaxInt64
	}
	for _, s := range spins {
		if s.Clock(0) != s.C0 || s.Retired(0) != 0 || s.L1DHits(0) != 0 {
			t.Fatalf("%+v: yield point 0 at clock %d with %d instructions and %d hits", s, s.Clock(0), s.Retired(0), s.L1DHits(0))
		}
		if s.Probe != s.Interval {
			for j := int64(1); j < n; j++ {
				closes := s.Hits > 0 && (s.Points == 1 || s.Clock(j)-s.Clock(j-1) == s.Probe)
				if d := s.L1DHits(j) - s.L1DHits(j-1); closes && d != s.Hits || !closes && d != 0 {
					t.Fatalf("%+v: yield point %d at clock %d adds %d hits after clock %d", s, j, s.Clock(j), d, s.Clock(j-1))
				}
			}
		}
		for c := s.C0 - 2; c <= s.Clock(n-1); c++ {
			if got, want := s.FirstAt(c), first(func(j int64) bool { return s.Clock(j) >= c }); got != want {
				t.Fatalf("%+v: FirstAt(%d) = %d, the scan finds %d", s, c, got, want)
			}
		}
		for i := int64(-1); i <= s.Retired(n-1)+1; i++ {
			want := first(func(j int64) bool { return s.Retired(j) >= i })
			if want == math.MaxInt64 && s.Loads+s.Instr > 0 {
				continue // beyond the scan
			}
			if got := s.FirstWith(i); got != want {
				t.Fatalf("%+v: FirstWith(%d) = %d, the scan finds %d", s, i, got, want)
			}
		}
	}
}
