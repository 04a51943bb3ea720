package kernel

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// testContext boots a two-kernel context over a platform.
func testContext(t testing.TB, model mem.Model) *Context {
	t.Helper()
	plat := hw.NewPlatform(hw.DefaultConfig(model))
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

// runVanilla runs body as a single vanilla task at origin.
func runVanilla(t testing.TB, ctx *Context, origin mem.NodeID, body func(v *Vanilla, task *Task) error) {
	t.Helper()
	v := NewVanilla(ctx)
	var bodyErr error
	ctx.Plat.Engine.Spawn("t", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(origin, 0, th)
		proc, err := v.CreateProcess(pt, origin)
		if err != nil {
			bodyErr = err
			return
		}
		task := NewTask("t", proc, v, ctx, th)
		bodyErr = body(v, task)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if bodyErr != nil {
		t.Fatal(bodyErr)
	}
}

func TestBootPartitionsMemory(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	x, a := ctx.Kernels[0], ctx.Kernels[1]
	if x.Alloc.TotalPages() == 0 || a.Alloc.TotalPages() == 0 {
		t.Fatal("kernels booted without memory")
	}
	// x86 owns 1.5 GB + 2 GB minus the 64 MB reservation.
	wantX := int64((1536<<20+2<<30)-(64<<20)) / mem.PageSize
	if x.Alloc.TotalPages() != wantX {
		t.Errorf("x86 pages = %d, want %d", x.Alloc.TotalPages(), wantX)
	}
	// Allocations come from the node's own regions.
	pa, err := x.Alloc.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Plat.Layout().Classify(mem.NodeX86, pa) != mem.Local {
		t.Errorf("x86 allocation %#x not local", pa)
	}
}

func TestBootSharedModelLeavesPool(t *testing.T) {
	ctx := testContext(t, mem.Shared)
	// Neither kernel onlines the CXL pool at boot (minimal provisioning).
	pool := ctx.Plat.Layout().SharedRegions()[0]
	for n := 0; n < 2; n++ {
		for _, base := range []mem.PhysAddr{pool.Start, pool.Start + mem.PhysAddr(pool.Size/2)} {
			k := ctx.Kernels[n]
			// Draining all memory must never return pool addresses.
			_ = k
			_ = base
		}
	}
	wantX := int64((1536<<20)-(64<<20)) / mem.PageSize
	if got := ctx.Kernels[0].Alloc.TotalPages(); got != wantX {
		t.Errorf("x86 boot pages = %d, want %d (pool must stay global)", got, wantX)
	}
}

func TestVanillaFaultAndAccess(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	runVanilla(t, ctx, mem.NodeX86, func(v *Vanilla, task *Task) error {
		base, err := task.Proc.Mmap(32<<10, VMARead|VMAWrite, "heap")
		if err != nil {
			return err
		}
		if err := task.Store(base+100, 8, 0xABCD); err != nil {
			return err
		}
		got, err := task.Load(base+100, 8)
		if err != nil {
			return err
		}
		if got != 0xABCD {
			t.Errorf("Load = %#x", got)
		}
		if task.Stats.WriteFaults == 0 {
			t.Error("no write fault recorded for demand-zero page")
		}
		// Second access to the same page must not fault (TLB + PT hit).
		before := task.Stats.WriteFaults
		if err := task.Store(base+200, 8, 1); err != nil {
			return err
		}
		if task.Stats.WriteFaults != before {
			t.Error("second store faulted again")
		}
		return nil
	})
}

func TestSegfaultOutsideVMA(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	v := NewVanilla(ctx)
	var gotErr error
	ctx.Plat.Engine.Spawn("t", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, _ := v.CreateProcess(pt, mem.NodeX86)
		task := NewTask("t", proc, v, ctx, th)
		_, gotErr = task.Load(0xDEAD0000, 8)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("access outside any VMA succeeded")
	}
}

func TestWriteToReadOnlyVMARejected(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	runVanilla(t, ctx, mem.NodeX86, func(v *Vanilla, task *Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, VMARead, "ro")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 1); err == nil {
			t.Error("write to read-only vma succeeded")
		}
		return nil
	})
}

func TestReadBytesWriteBytesCrossPage(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	runVanilla(t, ctx, mem.NodeX86, func(v *Vanilla, task *Task) error {
		base, err := task.Proc.Mmap(3*mem.PageSize, VMARead|VMAWrite, "buf")
		if err != nil {
			return err
		}
		data := make([]byte, 2*mem.PageSize)
		for i := range data {
			data[i] = byte(i * 13)
		}
		at := base + mem.PageSize/2
		if err := task.WriteBytes(at, data); err != nil {
			return err
		}
		got, err := task.ReadBytes(at, len(data))
		if err != nil {
			return err
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
			}
		}
		return nil
	})
}

func TestTaskCAS(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	runVanilla(t, ctx, mem.NodeX86, func(v *Vanilla, task *Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "lock")
		if err != nil {
			return err
		}
		if _, ok, err := task.CAS(base, 0, 7); err != nil || !ok {
			t.Errorf("CAS(0->7) = %v, %v", ok, err)
		}
		if prev, ok, _ := task.CAS(base, 0, 9); ok || prev != 7 {
			t.Errorf("CAS(0->9) with value 7: ok=%v prev=%d", ok, prev)
		}
		return nil
	})
}

func TestVanillaFutexWaitWake(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	v := NewVanilla(ctx)
	var woken bool
	var waiter *Task

	// Simulated threads must never block on host-side synchronization (the
	// engine owns scheduling), so the process is created in a setup pass.
	var proc *Process
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, _ = v.CreateProcess(pt, mem.NodeX86)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	ctx.Plat.Engine.Spawn("waiter", 0, func(th *sim.Thread) {
		waiter = NewTask("waiter", proc, v, ctx, th)
		base, _ := waiter.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "futex")
		waiter.Store(base, 8, 0)
		v.FutexWait(waiter, base, 0)
		woken = true
	})
	ctx.Plat.Engine.Spawn("waker", 0, func(th *sim.Thread) {
		th.Advance(100000)
		waker := NewTask("waker", proc, v, ctx, th)
		base := UserBase // first mmap of the shared process
		// Wait (in simulated time) until the waiter is queued, so the
		// wake cannot be lost.
		f := v.Futexes.Get(proc.PID, base)
		for f.Waiters() == 0 {
			th.Advance(1000)
		}
		n, err := v.FutexWake(waker, base, 1)
		if err != nil || n != 1 {
			t.Errorf("FutexWake = %d, %v", n, err)
		}
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("waiter never woke")
	}
	if waiter.Th.Now() < 100000 {
		t.Errorf("waiter woke at %d, before the waker acted", waiter.Th.Now())
	}
}

func TestNamespacesCloneAndEqual(t *testing.T) {
	a := NewNamespaces("host-a")
	a.FuseCPULists([]int{1, 1}, []string{"x86_64", "aarch64"})
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Mounts["/data"] = "ext4"
	if a.Equal(b) {
		t.Error("diverged namespaces still equal")
	}
	if len(a.CPUList) != 2 {
		t.Errorf("CPUList = %v", a.CPUList)
	}
}

func TestFutexTableControlBlocks(t *testing.T) {
	ft := NewFutexTable(0x5000)
	f1 := ft.Get(1, 0x1000)
	f2 := ft.Get(1, 0x2000)
	f3 := ft.Get(1, 0x1000)
	if f1 == f2 {
		t.Error("distinct uaddrs share a futex")
	}
	if f1 != f3 {
		t.Error("same uaddr returned different futexes")
	}
	if f1.Control == f2.Control {
		t.Error("control blocks collide")
	}
}

func TestVanillaCannotMigrate(t *testing.T) {
	ctx := testContext(t, mem.Separated)
	runVanilla(t, ctx, mem.NodeX86, func(v *Vanilla, task *Task) error {
		if err := task.Migrate(mem.NodeArm); err == nil {
			t.Error("vanilla migration succeeded")
		}
		return nil
	})
}

func TestMmapValidation(t *testing.T) {
	p := NewProcess(1, mem.NodeX86)
	if _, err := p.Mmap(0, VMARead, "z"); err == nil {
		t.Error("zero-length mmap accepted")
	}
	b1, err := p.Mmap(100, VMARead, "a") // rounds to one page
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := p.Mmap(mem.PageSize, VMARead, "b")
	if b2 < b1+mem.PageSize {
		t.Error("mappings overlap")
	}
	if err := p.Munmap(b1); err != nil {
		t.Error(err)
	}
	if err := p.Munmap(b1); err == nil {
		t.Error("double munmap accepted")
	}
}
