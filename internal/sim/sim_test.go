package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestClockConversions(t *testing.T) {
	k := Clock{Hz: 2_000_000_000} // 2 GHz
	if got := k.Micros(2000); got != 1 {
		t.Errorf("Micros(2000) = %v, want 1", got)
	}
	if got := k.FromMicros(1); got != 2000 {
		t.Errorf("FromMicros(1) = %v, want 2000", got)
	}
	if got := k.Nanos(2); got != 1 {
		t.Errorf("Nanos(2) = %v, want 1", got)
	}
	if got := k.Millis(2_000_000); got != 1 {
		t.Errorf("Millis(2e6) = %v, want 1", got)
	}
	if got := k.FromNanos(1000); got != 2000 {
		t.Errorf("FromNanos(1000) = %v, want 2000", got)
	}
}

func TestClockRoundTrip(t *testing.T) {
	k := Clock{Hz: 2_100_000_000}
	f := func(us uint16) bool {
		c := k.FromMicros(float64(us))
		back := k.Micros(c)
		diff := back - float64(us)
		return diff < 0.01 && diff > -0.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineSingleThread(t *testing.T) {
	e := NewEngine()
	var done bool
	e.Spawn("t", 0, func(th *Thread) {
		th.Advance(100)
		th.Advance(50)
		if th.Now() != 150 {
			t.Errorf("Now = %d, want 150", th.Now())
		}
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("thread body did not run")
	}
	if e.MaxTime() != 150 {
		t.Errorf("MaxTime = %d, want 150", e.MaxTime())
	}
}

func TestEngineLowestClockFirst(t *testing.T) {
	// Two threads that interleave via YieldPoints must execute in
	// simulated-time order regardless of spawn order.
	e := NewEngine()
	e.Quantum = 1
	var order []string
	e.Spawn("slow", 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Advance(100)
			order = append(order, "slow")
		}
	})
	e.Spawn("fast", 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Advance(10)
			order = append(order, "fast")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Advance yields before returning, so each append runs once the thread
	// is rescheduled: fast's three steps (clock 10,20,30) all complete
	// before slow's first step (clock 100) is rescheduled.
	want := []string{"fast", "fast", "fast", "slow", "slow", "slow"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		e.Quantum = 7
		var trace []int
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn("t", Cycles(i), func(th *Thread) {
				for j := 0; j < 5; j++ {
					th.Advance(Cycles(3 + i))
					trace = append(trace, i*10+j)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

// synthOutcome runs a synthetic workload of n threads, each mixing plain
// advances, atomic sections, quantum-crossing advances, yield points and a
// mid-run rendezvous (even threads block, odd threads wake them), and
// returns a ledger of shared-state updates in commit order plus every
// thread's final clock. Any change in the schedule changes the ledger.
func synthOutcome(t *testing.T, n, steps int) string {
	t.Helper()
	e := NewEngine()
	var threads []*Thread
	var ledger []string
	counter := 0
	for i := 0; i < n; i++ {
		i := i
		threads = append(threads, e.Spawn(fmt.Sprintf("synth%d", i), Cycles(i*17), func(th *Thread) {
			for s := 0; s < steps; s++ {
				if s == steps/2 {
					if i%2 == 0 {
						th.Block("synth-rendezvous")
					} else {
						e.Wake(threads[i-1], th.Now()+100)
						ledger = append(ledger, fmt.Sprintf("t%d s%d wake t%d @%d", i, s, i-1, th.Now()))
					}
				}
				switch (s*7 + i*3) % 5 {
				case 0:
					counter++
					ledger = append(ledger, fmt.Sprintf("t%d s%d @%d c%d", i, s, th.Now(), counter))
					th.Advance(Cycles(13 + i))
				case 1:
					counter += 2
					th.Advance(40000) // crosses the quantum
					th.YieldPoint()
					ledger = append(ledger, fmt.Sprintf("t%d s%d long @%d c%d", i, s, th.Now(), counter))
				case 2:
					th.BeginAtomic()
					th.Advance(Cycles((i*13+s*31)%97 + 1))
					th.EndAtomic()
				case 3:
					th.Advance(Cycles((i+s)%29 + 5))
				default:
					th.Advance(Cycles((i*7+s)%61 + 1))
					th.YieldPoint()
				}
			}
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprintf("counter=%d\n", counter)
	for _, l := range ledger {
		out += l + "\n"
	}
	for _, th := range threads {
		out += fmt.Sprintf("final t%d @%d\n", th.ID, th.Now())
	}
	return out
}

// TestParallelDeterminismAcrossGOMAXPROCS re-runs a synthetic workload at
// host parallelism 1, 2 and 8, three times each: the simulated outcome
// must not notice how many host threads carry the coroutines.
func TestParallelDeterminismAcrossGOMAXPROCS(t *testing.T) {
	const n, steps = 12, 70
	want := synthOutcome(t, n, steps)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			if got := synthOutcome(t, n, steps); got != want {
				t.Errorf("GOMAXPROCS=%d rep %d diverged", procs, rep)
			}
		}
	}
}

func TestEngineBlockWake(t *testing.T) {
	e := NewEngine()
	var consumer *Thread
	var got Cycles
	ready := false
	consumer = e.Spawn("consumer", 0, func(th *Thread) {
		th.Advance(10)
		for !ready {
			th.Block("wait-for-producer")
		}
		got = th.Now()
	})
	e.Spawn("producer", 0, func(th *Thread) {
		th.Advance(500)
		ready = true
		e.Wake(consumer, th.Now()+25)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 525 {
		t.Errorf("consumer woke at %d, want 525 (producer 500 + wake latency 25)", got)
	}
}

func TestEngineWakeDoesNotRewindClock(t *testing.T) {
	e := NewEngine()
	var th1 *Thread
	th1 = e.Spawn("sleeper", 0, func(th *Thread) {
		th.Advance(1000)
		th.Block("nap")
	})
	e.Spawn("waker", 0, func(th *Thread) {
		th.Advance(10)
		e.Wake(th1, 5) // earlier than sleeper's clock; must not rewind
	})
	// sleeper blocks after waker has already woken it: Wake on a runnable
	// thread is absorbed, so we need a second waker after the block.
	e.Spawn("waker2", 0, func(th *Thread) {
		th.Advance(2000)
		e.Wake(th1, 100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if th1.Now() < 1000 {
		t.Errorf("sleeper clock rewound to %d", th1.Now())
	}
}

func TestEngineDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", 0, func(th *Thread) {
		th.Block("forever")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestEnginePanicPropagation(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", 0, func(th *Thread) {
		panic("kaboom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", 0, func(th *Thread) {
		th.Advance(-1)
	})
	if err := e.Run(); err == nil {
		t.Fatal("negative Advance must be rejected")
	}
}

func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.Spawn("t", 0, func(th *Thread) {
		th.Advance(100)
		th.AdvanceTo(50) // no-op
		if th.Now() != 100 {
			t.Errorf("AdvanceTo rewound clock to %d", th.Now())
		}
		th.AdvanceTo(300)
		if th.Now() != 300 {
			t.Errorf("AdvanceTo(300) left clock at %d", th.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded RNGs diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck zero stream")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(99)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean > 0.05 || mean < -0.05 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}
