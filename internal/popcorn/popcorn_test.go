package popcorn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// testSystem boots a context + baseline OS over the Shared memory model.
func testSystem(t *testing.T, mode interconnect.Mode) (*kernel.Context, *OS) {
	t.Helper()
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	x86k, err := kernel.Boot(plat, mem.NodeX86, pgtable.X86Format{}, kernel.BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	armk, err := kernel.Boot(plat, mem.NodeArm, pgtable.Arm64Format{}, kernel.BootConfig{ReserveLow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &kernel.Context{Plat: plat, Kernels: [2]*kernel.Kernel{x86k, armk}}
	var os *OS
	plat.Engine.Spawn("boot", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		base := plat.Layout().SharedRegions()[0].Start
		msgr := interconnect.NewMessenger(interconnect.DefaultConfig(mode, base), plat, pt)
		os = New(ctx, msgr)
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return ctx, os
}

func runTask(t *testing.T, ctx *kernel.Context, os *OS, body func(task *kernel.Task) error) *kernel.Process {
	t.Helper()
	var proc *kernel.Process
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, _ = os.CreateProcess(pt, mem.NodeX86)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	var bodyErr error
	ctx.Plat.Engine.Spawn("task", 0, func(th *sim.Thread) {
		task := kernel.NewTask("task", proc, os, ctx, th)
		bodyErr = body(task)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if bodyErr != nil {
		t.Fatal(bodyErr)
	}
	return proc
}

func TestSeparateNamespaces(t *testing.T) {
	ctx, _ := testSystem(t, interconnect.SHM)
	if ctx.Kernels[0].NS == ctx.Kernels[1].NS {
		t.Fatal("baseline kernels share namespaces; must be replicas")
	}
}

func TestRemoteReadReplicatesPage(t *testing.T) {
	ctx, os := testSystem(t, interconnect.SHM)
	proc := runTask(t, ctx, os, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 0xFEED); err != nil {
			return err
		}
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		v, err := task.Load(base, 8)
		if err != nil {
			return err
		}
		if v != 0xFEED {
			t.Errorf("replica value = %#x", v)
		}
		return nil
	})
	meta := proc.MetaIfAny(kernel.UserBase)
	if meta == nil {
		t.Fatal("no page metadata")
	}
	if meta.Frames[0] == meta.Frames[1] {
		t.Error("remote read did not create a distinct replica frame")
	}
	if meta.DSM[0] != kernel.DSMShared || meta.DSM[1] != kernel.DSMShared {
		t.Errorf("DSM states = %v/%v, want S/S", meta.DSM[0], meta.DSM[1])
	}
	// Replica must live in Arm-local memory.
	if ctx.Plat.Layout().Classify(mem.NodeArm, meta.Frames[1]) != mem.Local {
		t.Error("replica not in remote node's local memory")
	}
	if os.Stats.PageReplications == 0 {
		t.Error("replication not counted")
	}
}

func TestWriteTakesExclusiveOwnership(t *testing.T) {
	ctx, os := testSystem(t, interconnect.SHM)
	proc := runTask(t, ctx, os, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 1); err != nil {
			return err
		}
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		if _, err := task.Load(base, 8); err != nil { // replicate S/S
			return err
		}
		return task.Store(base, 8, 2) // invalidate origin, take E
	})
	_ = ctx
	meta := proc.MetaIfAny(kernel.UserBase)
	if meta.DSM[mem.NodeArm] != kernel.DSMExclusive {
		t.Errorf("writer state = %v, want E", meta.DSM[mem.NodeArm])
	}
	if meta.DSM[mem.NodeX86] != kernel.DSMInvalid {
		t.Errorf("origin state = %v, want I", meta.DSM[mem.NodeX86])
	}
	if meta.Valid[mem.NodeX86] {
		t.Error("origin mapping survived invalidation")
	}
	if os.Stats.DSMInvalidations == 0 {
		t.Error("invalidation not counted")
	}
}

func TestPingPongWritesThrashDSM(t *testing.T) {
	// Alternating writes from the two sides must generate repeated
	// invalidations and page transfers — the §9.2.5 pathology.
	ctx, os := testSystem(t, interconnect.SHM)
	runTask(t, ctx, os, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		for round := 0; round < 5; round++ {
			if err := task.Store(base, 8, uint64(round)); err != nil {
				return err
			}
			if err := task.Migrate(mem.NodeArm); err != nil {
				return err
			}
			if v, _ := task.Load(base, 8); v != uint64(round) {
				t.Errorf("round %d: arm sees %d", round, v)
			}
			if err := task.Store(base, 8, uint64(round)+100); err != nil {
				return err
			}
			if err := task.Migrate(mem.NodeX86); err != nil {
				return err
			}
			if v, _ := task.Load(base, 8); v != uint64(round)+100 {
				t.Errorf("round %d: x86 sees %d", round, v)
			}
		}
		return nil
	})
	if os.Stats.DSMInvalidations < 5 {
		t.Errorf("only %d invalidations for ping-pong writes", os.Stats.DSMInvalidations)
	}
	if os.Stats.PageReplications < 5 {
		t.Errorf("only %d replications", os.Stats.PageReplications)
	}
}

func TestVMAFetchOnFirstRemoteFault(t *testing.T) {
	ctx, os := testSystem(t, interconnect.SHM)
	runTask(t, ctx, os, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(16*mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if err := task.Store(base+pgtable.VirtAddr(i*mem.PageSize), 8, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if os.Stats.VMAFetches != 1 {
		t.Errorf("VMA fetches = %d, want exactly 1 (cached afterwards)", os.Stats.VMAFetches)
	}
}

func TestTCPModeCostsMore(t *testing.T) {
	elapsed := func(mode interconnect.Mode) sim.Cycles {
		ctx, os := testSystem(t, mode)
		var end sim.Cycles
		runTask(t, ctx, os, func(task *kernel.Task) error {
			base, err := task.Proc.Mmap(64*mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d")
			if err != nil {
				return err
			}
			if err := task.Migrate(mem.NodeArm); err != nil {
				return err
			}
			for i := 0; i < 64; i++ {
				if err := task.Store(base+pgtable.VirtAddr(i*mem.PageSize), 8, 1); err != nil {
					return err
				}
			}
			end = task.Th.Now()
			return nil
		})
		return end
	}
	shm := elapsed(interconnect.SHM)
	tcp := elapsed(interconnect.TCP)
	// For page-sized DSM transfers the wire latency is only part of the
	// cost (the paper's Figure 9 shows TCP ≈ 1.3x SHM on IS, not 10x);
	// expect a clear but moderate gap.
	if float64(tcp) < 1.2*float64(shm) {
		t.Errorf("TCP DSM (%d) not clearly worse than SHM DSM (%d)", tcp, shm)
	}
}

func TestRemoteFutexGoesThroughOrigin(t *testing.T) {
	ctx, os := testSystem(t, interconnect.SHM)
	var proc *kernel.Process
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, _ = os.CreateProcess(pt, mem.NodeX86)
		proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "f")
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	base := kernel.UserBase
	var waiterTask *kernel.Task
	ctx.Plat.Engine.Spawn("waiter", 0, func(th *sim.Thread) {
		waiterTask = kernel.NewTask("waiter", proc, os, ctx, th)
		// The futex word must exist before waiting (userspace initializes
		// the mutex before any thread sleeps on it).
		if err := waiterTask.Store(base, 8, 0); err != nil {
			t.Error(err)
			return
		}
		if err := waiterTask.Migrate(mem.NodeArm); err != nil {
			t.Error(err)
			return
		}
		if err := os.FutexWait(waiterTask, base, 0); err != nil { // remote wait: RPC to origin
			t.Error(err)
		}
	})
	ctx.Plat.Engine.Spawn("waker", 0, func(th *sim.Thread) {
		waker := kernel.NewTask("waker", proc, os, ctx, th)
		f := os.futexes[proc.PID].Get(proc.PID, base)
		for f.Waiters() == 0 {
			th.Advance(2000)
		}
		n, err := os.FutexWake(waker, base, 1)
		if err != nil || n != 1 {
			t.Errorf("wake = %d, %v", n, err)
		}
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if os.Stats.FutexRPCs == 0 {
		t.Error("remote futex wait did not RPC to origin")
	}
}

func TestMigrationSendsStateMessages(t *testing.T) {
	ctx, os := testSystem(t, interconnect.SHM)
	runTask(t, ctx, os, func(task *kernel.Task) error {
		return task.Migrate(mem.NodeArm)
	})
	if os.Stats.MigrationMessages < 8 {
		t.Errorf("migration messages = %d, want >= 8 (4 state RPCs)", os.Stats.MigrationMessages)
	}
	_ = ctx
}

func TestProcessesOfBothOriginsGetDistinctState(t *testing.T) {
	// An x86-origin and an Arm-origin process live at once: per-process
	// state is keyed by PID, so the two must never share a PID.
	ctx, os := testSystem(t, interconnect.SHM)
	var procs [2]*kernel.Process
	var err error
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		for n := range procs {
			node := mem.NodeID(n)
			if procs[n], err = os.CreateProcess(ctx.Plat.NewPort(node, 0, th), node); err != nil {
				return
			}
		}
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	x, a := procs[mem.NodeX86].PID, procs[mem.NodeArm].PID
	if x == a {
		t.Fatalf("both processes got PID %d", x)
	}
	if os.ctrlPages[x] == os.ctrlPages[a] {
		t.Errorf("processes share VMA control pages %v", os.ctrlPages[x])
	}
	if os.futexes[x] == os.futexes[a] {
		t.Error("processes share a futex table")
	}
	os.vmaReplicated[x][0x1000] = true
	if os.vmaReplicated[a][0x1000] {
		t.Error("processes share a VMA replication set")
	}
}

// dsmRace runs four tasks of one process, two per node, storing to one
// page in turns, so that their faults contend for the page's DSM lock and
// the messenger's channel lock. It renders every number a parked lock
// spin could move. With spin the engine forbids parks
// (sim.Engine.ForbidParks), so the lock spins spin: the reference.
func dsmRace(t *testing.T, spin bool) (string, sim.EngineStats) {
	t.Helper()
	ctx, os := testSystem(t, interconnect.SHM)
	eng := ctx.Plat.Engine
	if spin {
		eng.ForbidParks()
	}
	var proc *kernel.Process
	var base pgtable.VirtAddr
	var err error
	eng.Spawn("setup", 0, func(th *sim.Thread) {
		if proc, err = os.CreateProcess(ctx.Plat.NewPort(mem.NodeX86, 0, th), mem.NodeX86); err != nil {
			return
		}
		task := kernel.NewTask("setup", proc, os, ctx, th)
		if base, err = proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d"); err == nil {
			err = task.Store(base, 8, 0)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]*kernel.Task, 4)
	errs := make([]error, 4)
	for w := range tasks {
		eng.Spawn(fmt.Sprintf("w%d", w), eng.MaxTime(), func(th *sim.Thread) {
			task := kernel.NewTask(th.Name, proc, os, ctx, th)
			tasks[w] = task
			if w%2 == 1 {
				if errs[w] = task.Migrate(mem.NodeArm); errs[w] != nil {
					return
				}
			}
			for i := range 8 {
				if errs[w] = task.Store(base+pgtable.VirtAddr(8*w), 8, uint64(i)); errs[w] != nil {
					return
				}
				task.Compute(500)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for w, task := range tasks {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		fmt.Fprintf(&b, "%s now %d %+v\n", task.Name, task.Th.Now(), task.Stats)
	}
	fmt.Fprintf(&b, "popcorn %+v\nmessenger %+v\n", os.Stats, os.Msgr.Stats())
	fmt.Fprintf(&b, "engine segments %d cycles %d\n", eng.Stats.SerialSegments, eng.Stats.SerialCycles)
	return b.String(), eng.Stats
}

// TestDSMLockParksExactly holds the DSM page-lock and messenger lock
// spins to the spinning run's every number, and requires that they
// parked.
func TestDSMLockParksExactly(t *testing.T) {
	want, spun := dsmRace(t, true)
	got, parked := dsmRace(t, false)
	if got != want {
		t.Fatalf("parked lock spins diverge from spinning\n--- parked\n%s--- spinning\n%s", got, want)
	}
	t.Logf("spinning: %d lock-spin yield points; parked: %d run, %d replayed",
		spun.LockYields, parked.LockYields, parked.LockReplayed)
	if spun.LockYields == 0 || spun.LockReplayed != 0 {
		t.Fatalf("spinning run: %d lock-spin yield points run, %d replayed; want some run, none replayed",
			spun.LockYields, spun.LockReplayed)
	}
	if parked.LockReplayed == 0 {
		t.Fatalf("parked run replayed no lock-spin yield point (%d run)", parked.LockYields)
	}
}
