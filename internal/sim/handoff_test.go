package sim

import (
	"strings"
	"testing"
	"time"
)

// Host-cost guards for the engine hand-off: what one yield, one
// cross-thread switch and one block/wake pair cost on the host, and that
// none of them allocates once the threads exist. The benchmark shapes are
// the ledger's sim.advance_yield_ns / sim.handoff_ns / sim.block_wake_ns
// (bench/layers.go), one op = one segment.

// BenchmarkYieldSelf is the self-continue path: a lone thread is always the
// minimum, so no yield ever leaves it.
func BenchmarkYieldSelf(b *testing.B) {
	e := NewEngine()
	e.Spawn("solo", 0, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Advance(e.Quantum) // a full quantum: every Advance yields
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Stats.SelfContinues != int64(b.N) {
		b.Fatalf("%d self-continues for %d yields", e.Stats.SelfContinues, b.N)
	}
}

// BenchmarkHandoff2 is the switch path: two threads leapfrog one cycle at a
// time, so every yield finds the other thread behind and hands off.
func BenchmarkHandoff2(b *testing.B) {
	e := NewEngine()
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, 0, func(t *Thread) {
			for i := 0; i < b.N/2; i++ {
				t.Advance(1)
				t.YieldPoint()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Stats.SelfContinues != 0 {
		b.Fatalf("%d self-continues on the switch path", e.Stats.SelfContinues)
	}
}

// BenchmarkBlockWake is one sleep and one wake-up per op: the waker's yield
// hands off to the woken waiter, which blocks straight back.
func BenchmarkBlockWake(b *testing.B) {
	e := NewEngine()
	waiter := e.Spawn("waiter", 0, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Block("bench")
		}
	})
	e.Spawn("waker", 0, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Advance(1)
			e.Wake(waiter, t.Now())
			t.YieldPoint()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpinPark is one park and one disturb per op: a spin loop parks
// at its poll, and a disturber ten polls later sets its flag and ends the
// park, so the loop's wake skips the nine polls in between in closed form.
func BenchmarkSpinPark(b *testing.B) {
	const period = 100
	e := NewEngine()
	var (
		flag bool
		c0   Cycles
	)
	wake := func(from Cycles) (int64, Cycles) {
		if from <= c0 {
			return 0, c0
		}
		k := (from - c0 + period - 1) / period
		return int64(k), c0 + k*period
	}
	spinner := e.Spawn("spinner", 0, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			for !flag {
				t.Advance(period)
				c0 = t.Now()
				t.Park("bench", never, wake)
			}
			flag = false
		}
	})
	e.Spawn("disturber", 0, func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Advance(10 * period)
			t.YieldPoint() // the flag store's segment starts ten polls on
			flag = true
			spinner.Disturb()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Stats.Replayed < 9*int64(b.N) {
		b.Fatalf("%d yield points replayed over %d parks", e.Stats.Replayed, b.N)
	}
}

// TestHandoffZeroAllocs measures from inside a running thread, where the
// threads and their coroutines already exist: neither keeping the token nor
// a full switch to another thread and back may allocate.
func TestHandoffZeroAllocs(t *testing.T) {
	t.Run("self-continue", func(t *testing.T) {
		e := NewEngine()
		var allocs float64
		e.Spawn("solo", 0, func(th *Thread) {
			allocs = testing.AllocsPerRun(200, func() { th.Advance(e.Quantum) })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("self-continue yield allocates %.1f objects", allocs)
		}
		if e.Stats.SelfContinues == 0 {
			t.Error("the lone thread never kept the token")
		}
	})
	t.Run("switch", func(t *testing.T) {
		e := NewEngine()
		var allocs float64
		measuring := true
		e.Spawn("measured", 0, func(th *Thread) {
			allocs = testing.AllocsPerRun(200, func() {
				th.Advance(1)
				th.YieldPoint()
			})
			measuring = false
		})
		e.Spawn("partner", 0, func(th *Thread) {
			for measuring {
				th.Advance(1)
				th.YieldPoint()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("a switch to the partner and back allocates %.1f objects", allocs)
		}
		if e.Stats.SelfContinues != 0 {
			t.Errorf("%d yields kept the token; the partner should always have been behind", e.Stats.SelfContinues)
		}
	})
}

// TestRunReturnsWithThreadsParked: a panicking thread must end Run at once
// although other threads sit parked in Block and YieldPoint — their bodies
// are never unwound — and a second Run must finish the runnable one and
// then report the sleepers as a deadlock, not hang on them.
func TestRunReturnsWithThreadsParked(t *testing.T) {
	e := NewEngine()
	for _, name := range []string{"sleeper-a", "sleeper-b"} {
		e.Spawn(name, 0, func(th *Thread) { th.Block("forever") })
	}
	finished := false
	e.Spawn("yielder", 0, func(th *Thread) {
		th.Advance(1000)
		th.YieldPoint()
		finished = true
	})
	e.Spawn("bomb", 0, func(th *Thread) {
		th.Advance(10)
		th.YieldPoint()
		panic("boom")
	})
	errs := make(chan error, 2) // one send per Run below
	go func() {
		errs <- e.Run()
		errs <- e.Run()
	}()
	for _, want := range []string{`thread "bomb" panicked: boom`, "deadlock, blocked threads: [sleeper-a(forever) sleeper-b(forever)]"} {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run = %v, want an error containing %q", err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run still has not returned (waiting for %q)", want)
		}
	}
	if !finished {
		t.Error("the second Run did not resume the thread parked in YieldPoint")
	}
}
