package microbench

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// Sem is a userspace counting semaphore built on the futex syscalls, like
// a glibc sem_t: the value lives in user memory; uncontended operations
// are pure CAS, contended ones enter the kernel (whose cost is what the
// personalities differ on, §9.2.6).
type Sem struct {
	Word pgtable.VirtAddr
}

// backoff desynchronizes CAS retry loops: under the deterministic engine
// two symmetric retry loops can otherwise interleave in perfect lockstep
// and livelock, so the delay grows with the attempt and differs per node
// (real hardware gets this asymmetry for free from cache arbitration).
func backoff(t *kernel.Task, attempt int) {
	t.Th.Advance(sim.Cycles((attempt + 1) * (37 + 23*int(t.Node))))
}

// P decrements the semaphore, sleeping via FutexWait while it is zero.
func (s Sem) P(t *kernel.Task) error {
	for attempt := 0; ; attempt++ {
		v, err := t.Load(s.Word, 8)
		if err != nil {
			return err
		}
		if v > 0 {
			if _, ok, err := t.CAS(s.Word, v, v-1); err != nil {
				return err
			} else if ok {
				return nil
			}
			backoff(t, attempt)
			continue
		}
		if err := t.OS.FutexWait(t, s.Word, 0); err != nil && err != kernel.ErrFutexRetry {
			return err
		}
	}
}

// V increments the semaphore and wakes one waiter.
func (s Sem) V(t *kernel.Task) error {
	for attempt := 0; ; attempt++ {
		v, err := t.Load(s.Word, 8)
		if err != nil {
			return err
		}
		if _, ok, err := t.CAS(s.Word, v, v+1); err != nil {
			return err
		} else if ok {
			break
		}
		backoff(t, attempt)
	}
	_, err := t.OS.FutexWake(t, s.Word, 1)
	return err
}

// FutexResult is one Figure 13 measurement.
type FutexResult struct {
	Loops   int
	Cycles  sim.Cycles
	Waits   int64
	Wakes   int64
	Counter uint64
}

// RunFutexPingPong reproduces §9.2.6: the origin-side thread continuously
// "locks" (P) and the remote-side thread continuously "unlocks" (V) the
// same futex, with a simple addition in each loop. Returns the total
// simulated time for loops rounds.
func RunFutexPingPong(m *machine.Machine, loops int) (FutexResult, error) {
	res := FutexResult{Loops: loops}
	var semAddr, ctrAddr pgtable.VirtAddr

	specs := []machine.TaskSpec{
		{
			Name: "locker", Origin: mem.NodeX86, ProcKey: "futexbench", KeepAlive: true,
			Body: func(t *kernel.Task) error {
				base, err := t.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "futex")
				if err != nil {
					return err
				}
				semAddr = base
				ctrAddr = base + 128
				if err := t.Store(semAddr, 8, 0); err != nil {
					return err
				}
				if err := t.Store(ctrAddr, 8, 0); err != nil {
					return err
				}
				sem := Sem{Word: semAddr}
				t.BeginTimed()
				for i := 0; i < loops; i++ {
					if err := sem.P(t); err != nil {
						return err
					}
					// The "simple addition in each loop".
					v, err := t.Load(ctrAddr, 8)
					if err != nil {
						return err
					}
					if err := t.Store(ctrAddr, 8, v+1); err != nil {
						return err
					}
				}
				res.Cycles = t.TimedCycles()
				res.Waits = t.Stats.FutexWaits
				v, err := t.Load(ctrAddr, 8)
				if err != nil {
					return err
				}
				res.Counter = v
				return nil
			},
		},
		{
			Name: "unlocker", Origin: mem.NodeX86, ProcKey: "futexbench", KeepAlive: true,
			// Start slightly later so the locker initializes the words.
			Start: 1000,
			Body: func(t *kernel.Task) error {
				if err := t.Migrate(mem.NodeArm); err != nil {
					return err
				}
				// Spin (in simulated time) until the futex word exists.
				for semAddr == 0 {
					t.Th.Advance(2000)
				}
				sem := Sem{Word: semAddr}
				for i := 0; i < loops; i++ {
					if err := sem.V(t); err != nil {
						return err
					}
					// Pace the producer so the consumer really sleeps each
					// round (the paper's benchmark keeps the locker waiting).
					t.Compute(2500)
				}
				res.Wakes = t.Stats.FutexWakes
				return nil
			},
		},
	}
	if _, err := m.RunTasks(specs...); err != nil {
		return res, err
	}
	if res.Counter != uint64(loops) {
		return res, fmt.Errorf("microbench: futex counter = %d, want %d (lost wakeups?)", res.Counter, loops)
	}
	return res, nil
}
