package kernel

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// schedContext boots a context with an explicit core count per node (the
// plain testContext keeps the default single core).
func schedContext(t *testing.T, coresX86, coresArm int) *Context {
	t.Helper()
	cfg := hw.DefaultConfig(mem.Separated)
	cfg.Cache.Nodes[0].Cores = coresX86
	cfg.Cache.Nodes[1].Cores = coresArm
	plat := hw.NewPlatform(cfg)
	x86k, err := Boot(plat, mem.NodeX86, pgtable.X86Format{}, BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	armk, err := Boot(plat, mem.NodeArm, pgtable.Arm64Format{}, BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Plat: plat, Kernels: [2]*Kernel{x86k, armk}}
}

// spawnScheduled runs body as a scheduled vanilla task on (NodeX86, core) in
// its own process. Errors surface through errp after Engine.Run.
func spawnScheduled(ctx *Context, s *Scheduler, v *Vanilla, name string, core int,
	start sim.Cycles, body func(*Task) error, errp *error) {
	ctx.Plat.Engine.Spawn(name, start, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, err := v.CreateProcess(pt, mem.NodeX86)
		if err != nil {
			*errp = err
			return
		}
		task := NewTaskOn(name, proc, v, ctx, th, core)
		s.Attach(task)
		err = body(task)
		s.Detach(task)
		if err != nil {
			*errp = err
		}
	})
}

// rrWorkload is the shared two-tasks-one-core scenario: both tasks stream
// over private buffers and compute, contending for x86 core 0 under the
// strict policy. It returns the per-task finish times and the core's
// counters, plus how many times a running task observed another task
// holding its CPU (must be zero: strict means one task per core).
func runRR(t *testing.T, quantum int64) (nows [2]sim.Cycles, preempts, dispatches int64, violations int) {
	t.Helper()
	ctx := schedContext(t, 1, 1)
	s := NewScheduler(ctx, SchedTimeSlice, quantum)
	v := NewVanilla(ctx)
	cpu := s.CPUOf(mem.NodeX86, 0)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		spawnScheduled(ctx, s, v, fmt.Sprintf("rr%d", i), 0, sim.Cycles(i*10), func(task *Task) error {
			base, err := task.Proc.Mmap(16<<10, VMARead|VMAWrite, "buf")
			if err != nil {
				return err
			}
			for off := 0; off < 16<<10; off += 64 {
				if err := task.Store(base+pgtable.VirtAddr(off), 8, uint64(off)); err != nil {
					return err
				}
			}
			for iter := 0; iter < 40; iter++ {
				for off := 0; off < 16<<10; off += 64 {
					if _, err := task.Load(base+pgtable.VirtAddr(off), 8); err != nil {
						return err
					}
				}
				task.Compute(2000)
				if cpu.cur != task {
					violations++
				}
			}
			nows[i] = task.Th.Now()
			return nil
		}, &errs[i])
	}
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	return nows, cpu.Preemptions, cpu.Dispatches, violations
}

// TestTimeSliceRoundRobin drives two compute/memory tasks through one
// strict-policy core: the quantum must force round-robin preemptions, the
// core must never be observed running two tasks, and the dispatch count
// must be exactly initial dispatches plus preemption re-dispatches (no
// other transition exists in this scenario).
func TestTimeSliceRoundRobin(t *testing.T) {
	_, preempts, dispatches, violations := runRR(t, 1000)
	if violations != 0 {
		t.Errorf("%d observations of a task running while not holding its CPU", violations)
	}
	if preempts == 0 {
		t.Error("no preemptions under a 1000-instruction quantum with two runnable tasks")
	}
	if dispatches != 2+preempts {
		t.Errorf("dispatches = %d, want 2 initial + %d preemptions", dispatches, preempts)
	}
}

// TestTimeSliceReleaseWatermark is invariant 11's release watermark
// (CPU.freeAt): a task that sleeps and is woken onto a free CPU whose last
// occupant released it later than the wake does not occupy the CPU before
// that release. The engine quantum is unbounded, so the occupant's whole
// run and its release are one segment that the wake, earlier in simulated
// time, follows.
func TestTimeSliceReleaseWatermark(t *testing.T) {
	ctx := schedContext(t, 1, 1)
	ctx.Plat.Engine.Quantum = 1 << 40
	s := NewScheduler(ctx, SchedTimeSlice, 0)
	v := NewVanilla(ctx)
	var (
		sleeper                               *Task
		slept, occupied, released, wake, woke sim.Cycles
		errs                                  [2]error
	)
	spawnScheduled(ctx, s, v, "sleeper", 0, 0, func(t *Task) error {
		sleeper = t
		slept = t.Th.Now()
		t.Sleep("nap")
		woke = t.Th.Now()
		return nil
	}, &errs[0])
	spawnScheduled(ctx, s, v, "occupant", 0, 50_000, func(t *Task) error {
		occupied = t.Th.Now()
		t.Th.Advance(200_000)
		released = t.Th.Now() // Detach releases the CPU here
		return nil
	}, &errs[1])
	ctx.Plat.Engine.Spawn("waker", 100_000, func(th *sim.Thread) {
		th.YieldPoint()
		wake = th.Now()
		sleeper.Awaken(wake)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(slept < occupied && wake < released) {
		t.Fatalf("slept at %d, occupied at %d, woken at %d, released at %d: the occupant must take the CPU after the sleep and release it after the wake",
			slept, occupied, wake, released)
	}
	if woke != released {
		t.Errorf("the sleeper woken at %d occupies the CPU at %d, want the last occupant's release %d", wake, woke, released)
	}
}

// TestTimeSliceQuantumBounds: a quantum larger than either task's total
// retired instructions (with a correspondingly large cycle backstop) must
// never preempt — the first task runs to completion and the second follows.
func TestTimeSliceQuantumBounds(t *testing.T) {
	_, smallQ, _, _ := runRR(t, 500)
	_, hugeQ, dispatches, _ := runRR(t, 100_000_000)
	if hugeQ != 0 {
		t.Errorf("quantum above total work still preempted %d times", hugeQ)
	}
	if dispatches != 2 {
		t.Errorf("run-to-completion dispatches = %d, want 2", dispatches)
	}
	if smallQ <= hugeQ {
		t.Errorf("small quantum preempted %d times, not more than huge quantum's %d", smallQ, hugeQ)
	}
}

// TestTimeSliceDeterminism: the contended scenario retires identical cycle
// counts and scheduler counters across fresh runs.
func TestTimeSliceDeterminism(t *testing.T) {
	n1, p1, d1, _ := runRR(t, 1000)
	n2, p2, d2, _ := runRR(t, 1000)
	if n1 != n2 {
		t.Errorf("finish times differ across identical runs: %v vs %v", n1, n2)
	}
	if p1 != p2 || d1 != d2 {
		t.Errorf("scheduler counters differ: %d/%d preempts, %d/%d dispatches", p1, p2, d1, d2)
	}
}

// TestSchedulerSleepWake routes a sleep through the scheduler: the sleeper
// must free its core for the other task while blocked, and resume only
// after the wake is sent.
func TestSchedulerSleepWake(t *testing.T) {
	ctx := schedContext(t, 1, 1)
	s := NewScheduler(ctx, SchedTimeSlice, DefaultSchedQuantum)
	v := NewVanilla(ctx)
	cpu := s.CPUOf(mem.NodeX86, 0)

	var sleeper *Task
	var wakeSentAt, wokeAt sim.Cycles
	sawCPUWhileSleeperBlocked := false
	errs := make([]error, 2)

	spawnScheduled(ctx, s, v, "sleeper", 0, 0, func(task *Task) error {
		sleeper = task
		task.Sleep("test")
		wokeAt = task.Th.Now()
		if task.State != TaskRunning {
			t.Errorf("woken task state = %v, want running", task.State)
		}
		return nil
	}, &errs[0])

	spawnScheduled(ctx, s, v, "waker", 0, 1000, func(task *Task) error {
		task.Compute(5000)
		if cpu.cur == task {
			sawCPUWhileSleeperBlocked = true
		}
		wakeSentAt = task.Th.Now()
		sleeper.Awaken(wakeSentAt)
		task.Compute(1000)
		return nil
	}, &errs[1])

	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if !sawCPUWhileSleeperBlocked {
		t.Error("waker never held the core the sleeper vacated")
	}
	if wokeAt < wakeSentAt {
		t.Errorf("sleeper resumed at %d, before the wake at %d", wokeAt, wakeSentAt)
	}
	if sleeper.State != TaskExited {
		t.Errorf("detached task state = %v, want exited", sleeper.State)
	}
	// sleeper initial + waker initial + sleeper re-dispatch after the wake.
	if cpu.Dispatches < 3 {
		t.Errorf("dispatches = %d, want at least 3 (sleep must release and re-acquire)", cpu.Dispatches)
	}
}

// TestFutexUnderTimeSlice puts two futex waiters and their waker on one
// strict core: the futex path must release the core while waiting (or the
// waker could never run) and its preempt-off enqueue-to-sleep window must
// keep run-queue handoffs and futex wakes apart — any crossed wake panics
// in Scheduler.acquire.
func TestFutexUnderTimeSlice(t *testing.T) {
	ctx := schedContext(t, 1, 1)
	s := NewScheduler(ctx, SchedTimeSlice, 1000)
	v := NewVanilla(ctx)

	// One shared process for all three tasks, created up front.
	var proc *Process
	var word pgtable.VirtAddr
	var setupErr error
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		p, err := v.CreateProcess(pt, mem.NodeX86)
		if err != nil {
			setupErr = err
			return
		}
		base, err := p.Mmap(mem.PageSize, VMARead|VMAWrite, "futex")
		if err != nil {
			setupErr = err
			return
		}
		proc, word = p, base
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}

	spawnTask := func(name string, start sim.Cycles, body func(*Task) error, errp *error) {
		ctx.Plat.Engine.Spawn(name, start, func(th *sim.Thread) {
			task := NewTaskOn(name, proc, v, ctx, th, 0)
			s.Attach(task)
			err := body(task)
			s.Detach(task)
			if err != nil {
				*errp = err
			}
		})
	}

	errs := make([]error, 3)
	for i := 0; i < 2; i++ {
		spawnTask(fmt.Sprintf("waiter%d", i), sim.Cycles(i*10), func(task *Task) error {
			if err := task.Store(word, 8, 0); err != nil {
				return err
			}
			err := task.OS.FutexWait(task, word, 0)
			if err == ErrFutexRetry {
				return fmt.Errorf("waiter retried: waker ran before both waiters blocked")
			}
			return err
		}, &errs[i])
	}
	var woken int
	spawnTask("waker", 500_000, func(task *Task) error {
		if err := task.Store(word, 8, 1); err != nil {
			return err
		}
		n, err := task.OS.FutexWake(task, word, 2)
		woken = n
		return err
	}, &errs[2])

	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if woken != 2 {
		t.Errorf("FutexWake woke %d waiters, want 2", woken)
	}
}

// TestCloneJoin covers the unscheduled clone path: children share the
// parent's address space, Join reaps exit status, and errors propagate.
func TestCloneJoin(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	runVanilla(t, ctx, mem.NodeX86, func(v *Vanilla, task *Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "shared")
		if err != nil {
			return err
		}
		const kids = 3
		var handles []*ClonedTask
		for i := 0; i < kids; i++ {
			i := i
			c, err := task.Clone(fmt.Sprintf("kid%d", i), 0, func(child *Task) error {
				if child.Proc != task.Proc {
					t.Error("clone created a new process, want shared")
				}
				return child.Store(base+pgtable.VirtAddr(i*8), 8, uint64(100+i))
			})
			if err != nil {
				return err
			}
			handles = append(handles, c)
		}
		for _, c := range handles {
			if err := c.Join(task); err != nil {
				return err
			}
		}
		// The children's stores are visible through the shared space.
		for i := 0; i < kids; i++ {
			got, err := task.Load(base+pgtable.VirtAddr(i*8), 8)
			if err != nil {
				return err
			}
			if got != uint64(100+i) {
				t.Errorf("slot %d = %d, want %d", i, got, 100+i)
			}
		}
		// A child error comes back through Join.
		c, err := task.Clone("failing", 0, func(child *Task) error {
			return fmt.Errorf("child boom")
		})
		if err != nil {
			return err
		}
		if err := c.Join(task); err == nil || err.Error() != "child boom" {
			t.Errorf("Join error = %v, want child boom", err)
		}
		// Without a scheduler only core 0 exists.
		if _, err := task.Clone("off-core", 1, func(*Task) error { return nil }); err == nil {
			t.Error("clone onto core 1 without a scheduler succeeded")
		}
		return nil
	})
}

// TestCloneAcrossCores clones workers onto distinct cores of a scheduled
// parent and verifies placement validation plus that the sibling core
// actually dispatched work.
func TestCloneAcrossCores(t *testing.T) {
	ctx := schedContext(t, 2, 2)
	s := NewScheduler(ctx, SchedTimeSlice, 1000)
	v := NewVanilla(ctx)
	var runErr error
	spawnScheduled(ctx, s, v, "parent", 0, 0, func(task *Task) error {
		if _, err := task.Clone("bad", 2, func(*Task) error { return nil }); err == nil {
			return fmt.Errorf("clone onto core 2 of a 2-core node succeeded")
		}
		if _, err := task.Clone("neg", -1, func(*Task) error { return nil }); err == nil {
			return fmt.Errorf("clone onto core -1 succeeded")
		}
		var hs []*ClonedTask
		for core := 0; core < 2; core++ {
			core := core
			c, err := task.Clone(fmt.Sprintf("w%d", core), core, func(child *Task) error {
				if child.Core != core {
					t.Errorf("child core = %d, want %d", child.Core, core)
				}
				child.Compute(10_000)
				return nil
			})
			if err != nil {
				return err
			}
			hs = append(hs, c)
		}
		for _, c := range hs {
			if err := c.Join(task); err != nil {
				return err
			}
		}
		return nil
	}, &runErr)
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if s.CPUOf(mem.NodeX86, 1).Dispatches == 0 {
		t.Error("core 1 never dispatched its cloned worker")
	}
}

// TestSharedPolicyCycleInvariance: attaching tasks to a SchedShared
// scheduler must not move a single simulated cycle — the policy exists so
// the pre-scheduler experiments stay byte-identical.
func TestSharedPolicyCycleInvariance(t *testing.T) {
	run := func(withSched bool) [2]sim.Cycles {
		ctx := schedContext(t, 1, 1)
		var s *Scheduler
		if withSched {
			s = NewScheduler(ctx, SchedShared, 0)
		}
		v := NewVanilla(ctx)
		var nows [2]sim.Cycles
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			i := i
			ctx.Plat.Engine.Spawn(fmt.Sprintf("t%d", i), sim.Cycles(i*10), func(th *sim.Thread) {
				pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
				proc, err := v.CreateProcess(pt, mem.NodeX86)
				if err != nil {
					errs[i] = err
					return
				}
				task := NewTaskOn(fmt.Sprintf("t%d", i), proc, v, ctx, th, 0)
				if s != nil {
					s.Attach(task)
				}
				base, err := task.Proc.Mmap(8<<10, VMARead|VMAWrite, "buf")
				if err == nil {
					for off := 0; off < 8<<10; off += 64 {
						if err = task.Store(base+pgtable.VirtAddr(off), 8, 7); err != nil {
							break
						}
					}
					task.Compute(20_000)
				}
				if s != nil {
					s.Detach(task)
				}
				nows[i] = th.Now()
				errs[i] = err
			})
		}
		if err := ctx.Plat.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("task %d: %v", i, err)
			}
		}
		return nows
	}
	bare, shared := run(false), run(true)
	if bare != shared {
		t.Errorf("SchedShared changed cycle counts: bare %v, scheduled %v", bare, shared)
	}
}

// TestRebindMigratesCPU: a cross-node Rebind must release the origin CPU
// and occupy the destination CPU, folding the core index when the
// destination node has fewer cores.
func TestRebindMigratesCPU(t *testing.T) {
	ctx := schedContext(t, 2, 1) // asymmetric: x86 has 2 cores, Arm 1
	s := NewScheduler(ctx, SchedTimeSlice, DefaultSchedQuantum)
	v := NewVanilla(ctx)
	var runErr error
	spawnScheduled(ctx, s, v, "mig", 1, 0, func(task *Task) error {
		x1, a0 := s.CPUOf(mem.NodeX86, 1), s.CPUOf(mem.NodeArm, 0)
		if x1.cur != task || x1.Running() != 1 {
			return fmt.Errorf("task not on x86 core 1 after attach")
		}
		task.Rebind(mem.NodeArm)
		if task.Node != mem.NodeArm || task.Core != 0 {
			return fmt.Errorf("after rebind: node %v core %d, want arm core 0 (folded)", task.Node, task.Core)
		}
		if x1.cur != nil || x1.Running() != 0 {
			return fmt.Errorf("origin CPU still occupied after migration")
		}
		if a0.cur != task || a0.Running() != 1 {
			return fmt.Errorf("destination CPU not occupied after migration")
		}
		task.Rebind(mem.NodeX86)
		if a0.cur != nil || s.CPUOf(mem.NodeX86, 0).cur != task {
			return fmt.Errorf("migration back did not move the CPU binding")
		}
		return nil
	}, &runErr)
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestAttachRejectsBadCore: attaching beyond the node's core count is a
// programming error and must panic rather than index out of range later.
func TestAttachRejectsBadCore(t *testing.T) {
	ctx := schedContext(t, 1, 1)
	s := NewScheduler(ctx, SchedTimeSlice, 0)
	v := NewVanilla(ctx)
	var runErr error
	ctx.Plat.Engine.Spawn("bad", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, err := v.CreateProcess(pt, mem.NodeX86)
		if err != nil {
			runErr = err
			return
		}
		task := NewTaskOn("bad", proc, v, ctx, th, 3)
		defer func() {
			if recover() == nil {
				t.Error("Attach onto core 3 of a 1-core node did not panic")
			}
		}()
		s.Attach(task)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}
