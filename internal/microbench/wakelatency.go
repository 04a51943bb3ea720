package microbench

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// WakeLatencyResult reports the measured futex wake path latency: the
// simulated time from the waker's successful FutexWake call to the waiter
// resuming execution. Under the fused design this is essentially the
// cross-ISA IPI delivery time (§6.5), which is why the IPI-latency
// ablation uses it as its probe.
type WakeLatencyResult struct {
	Rounds      int
	TotalCycles sim.Cycles
	MeanCycles  float64
}

// RunWakeLatency performs rounds sequential block/wake handshakes between
// a waiter on the origin ISA and a waker on the other ISA.
func RunWakeLatency(m *machine.Machine, rounds int) (WakeLatencyResult, error) {
	res := WakeLatencyResult{Rounds: rounds}
	var futexVA pgtable.VirtAddr
	var wakeSentAt sim.Cycles
	done := 0

	specs := []machine.TaskSpec{
		{
			Name: "waiter", Origin: mem.NodeX86, ProcKey: "wakelat", KeepAlive: true,
			Body: func(t *kernel.Task) error {
				base, err := t.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "futex")
				if err != nil {
					return err
				}
				if err := t.Store(base, 8, 0); err != nil {
					return err
				}
				futexVA = base
				for r := 0; r < rounds; r++ {
					if err := t.OS.FutexWait(t, base, 0); err != nil && err != kernel.ErrFutexRetry {
						return err
					}
					// Woken: the elapsed wake-path time is our clock now
					// minus the waker's clock at the successful wake.
					if t.Th.Now() > wakeSentAt {
						res.TotalCycles += t.Th.Now() - wakeSentAt
					}
					done++
				}
				return nil
			},
		},
		{
			Name: "waker", Origin: mem.NodeX86, ProcKey: "wakelat", KeepAlive: true,
			Start: 500,
			Body: func(t *kernel.Task) error {
				if err := t.Migrate(mem.NodeArm); err != nil {
					return err
				}
				for futexVA == 0 {
					t.Th.Advance(2000)
				}
				for r := 0; r < rounds; r++ {
					// Retry until the wake actually lands on a queued waiter.
					for {
						wakeSentAt = t.Th.Now()
						n, err := t.OS.FutexWake(t, futexVA, 1)
						if err != nil {
							return err
						}
						if n == 1 {
							break
						}
						t.Th.Advance(3000)
						t.Th.YieldPoint()
					}
					// Give the waiter time to come back around and queue
					// again before the next round.
					t.Compute(4000)
				}
				return nil
			},
		},
	}
	if _, err := m.RunTasks(specs...); err != nil {
		return res, err
	}
	if done != rounds {
		return res, fmt.Errorf("microbench: %d of %d wakes completed", done, rounds)
	}
	res.MeanCycles = float64(res.TotalCycles) / float64(rounds)
	return res, nil
}
