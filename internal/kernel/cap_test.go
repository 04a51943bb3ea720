package kernel

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// capContext builds a booted two-kernel context with a capability
// namespace holding one tenant with the given grants.
func capContext(t *testing.T, budget cap.Budget, grants map[cap.Kind]string) (*Context, *cap.Tenant) {
	t.Helper()
	ctx := schedContext(t, 1, 1)
	mnt, err := vfs.NewMount(vfs.Config{
		Regime:   vfs.RegimeFused,
		CtrlPage: ctx.Plat.Layout().OwnedRegions(mem.NodeX86)[0].Start + (32 << 20),
		Home:     mem.NodeX86,
		Local: func(pt *hw.Port, node mem.NodeID) (mem.PhysAddr, error) {
			return ctx.Kernel(node).AllocZeroedPage(pt)
		},
		FreeLocal: func(pt *hw.Port, node mem.NodeID, pa mem.PhysAddr) error {
			pt.T.Advance(AllocCost)
			return ctx.Kernel(node).Alloc.Free(pa)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx.VFS = mnt
	ns := cap.NewNamespace()
	ten := ns.NewTenant("t0", budget)
	for k, scope := range grants {
		ns.Table.Grant(ten, k, scope)
	}
	ctx.Caps = ns
	return ctx, ten
}

// runTenantTask runs body as a scheduled vanilla task owned by ten,
// returning the body's error.
func runTenantTask(t *testing.T, ctx *Context, ten *cap.Tenant, body func(*Task) error) error {
	t.Helper()
	s := NewScheduler(ctx, SchedShared, 0)
	v := NewVanilla(ctx)
	var proc *Process
	var setupErr error
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, setupErr = v.CreateProcess(pt, mem.NodeX86)
		if setupErr == nil {
			proc.Ten = ten
		}
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	var bodyErr error
	ctx.Plat.Engine.Spawn("tenant", 0, func(th *sim.Thread) {
		task := NewTaskOn("tenant", proc, v, ctx, th, 0)
		s.Attach(task)
		bodyErr = body(task)
		s.Detach(task)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return bodyErr
}

// wantCapError asserts err carries a *cap.CapError with the given reason.
func wantCapError(t *testing.T, err error, reason cap.Reason, op string) *cap.CapError {
	t.Helper()
	var ce *cap.CapError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: error %v is not a *cap.CapError", op, err)
	}
	if ce.Reason != reason {
		t.Fatalf("%s: reason = %v, want %v (err: %v)", op, ce.Reason, reason, ce)
	}
	return ce
}

// TestCapGatesDenyByDefault runs a tenant task that holds no grants at
// all: every gated syscall must refuse with a typed Denied error, and the
// kernel must count each refusal against the tenant.
func TestCapGatesDenyByDefault(t *testing.T) {
	ctx, ten := capContext(t, cap.Budget{}, nil)
	err := runTenantTask(t, ctx, ten, func(task *Task) error {
		if _, err := task.Mmap(mem.PageSize, VMARead|VMAWrite, "heap"); err == nil {
			return fmt.Errorf("mmap succeeded without a vma grant")
		} else {
			wantCapError(t, err, cap.Denied, "mmap")
		}
		if _, err := task.OpenFile("/x", 0); err == nil {
			return fmt.Errorf("open succeeded without a file grant")
		} else {
			wantCapError(t, err, cap.Denied, "open")
		}
		if err := task.Mkdir("/d"); err == nil {
			return fmt.Errorf("mkdir succeeded without a file grant")
		} else {
			wantCapError(t, err, cap.Denied, "mkdir")
		}
		if _, err := task.FutexWake(0x1000, 1); err == nil {
			return fmt.Errorf("futex-wake succeeded without a futex grant")
		} else {
			wantCapError(t, err, cap.Denied, "futex-wake")
		}
		if _, err := task.Clone("child", 0, func(*Task) error { return nil }); err == nil {
			return fmt.Errorf("clone succeeded without a spawn grant")
		} else {
			wantCapError(t, err, cap.Denied, "clone")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Stats.Denials < 5 {
		t.Errorf("tenant denials = %d, want at least 5", ten.Stats.Denials)
	}
	if ten.Stats.CapsChecked < 5 {
		t.Errorf("caps checked = %d, want at least 5", ten.Stats.CapsChecked)
	}
}

// TestCapGatesAllowGranted is the positive half: with the right grants
// the same syscalls succeed, and file descriptors work end to end.
func TestCapGatesAllowGranted(t *testing.T) {
	ctx, ten := capContext(t, cap.Budget{}, map[cap.Kind]string{
		cap.VMA: "", cap.File: "/app", cap.Futex: "",
	})
	err := runTenantTask(t, ctx, ten, func(task *Task) error {
		va, err := task.Mmap(mem.PageSize, VMARead|VMAWrite, "heap")
		if err != nil {
			return err
		}
		if err := task.Store(va, 8, 7); err != nil {
			return err
		}
		if err := task.Mkdir("/app"); err != nil {
			return err
		}
		fd, err := task.OpenFile("/app/f", vfs.OWrite|vfs.OCreate)
		if err != nil {
			return err
		}
		if _, err := task.WriteFileAt(fd, []byte("hello"), 0); err != nil {
			return err
		}
		if err := task.CloseFile(fd); err != nil {
			return err
		}
		// Outside the scope prefix: denied.
		if _, err := task.OpenFile("/etc/passwd", 0); err == nil {
			return fmt.Errorf("open escaped the /app scope")
		} else {
			wantCapError(t, err, cap.Denied, "open-outside-scope")
		}
		if _, err := task.FutexWake(va, 1); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Stats.CapsChecked == 0 {
		t.Error("no capability checks were counted")
	}
	if ten.Stats.Denials != 1 {
		t.Errorf("denials = %d, want exactly 1 (the out-of-scope open)", ten.Stats.Denials)
	}
}

// TestCapFrameBudget maps more anonymous pages than the budget allows:
// the fault that would exceed it must fail with BudgetExhausted, the
// frame gauge must not leak, and unmapping must return headroom.
func TestCapFrameBudget(t *testing.T) {
	ctx, ten := capContext(t, cap.Budget{Frames: 2}, map[cap.Kind]string{cap.VMA: ""})
	err := runTenantTask(t, ctx, ten, func(task *Task) error {
		va, err := task.Mmap(4*mem.PageSize, VMARead|VMAWrite, "hog")
		if err != nil {
			return err
		}
		for page := 0; page < 2; page++ {
			if err := task.Store(va+pgtable.VirtAddr(page)*mem.PageSize, 8, 1); err != nil {
				return fmt.Errorf("page %d within budget: %w", page, err)
			}
		}
		err = task.Store(va+2*mem.PageSize, 8, 1)
		if err == nil {
			return fmt.Errorf("third page mapped past a 2-frame budget")
		}
		wantCapError(t, err, cap.BudgetExhausted, "over-budget fault")
		if got := ten.FramesInUse(); got != 2 {
			return fmt.Errorf("frames in use = %d after refused fault, want 2 (no leak)", got)
		}
		// Unmap one page; the freed headroom must make the fault succeed.
		if !UnmapFrame(task.Port, task.Proc, mem.NodeX86, va) {
			return fmt.Errorf("unmap of a resident page reported nothing to do")
		}
		if err := task.Store(va+2*mem.PageSize, 8, 1); err != nil {
			return fmt.Errorf("fault after freeing headroom: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Stats.QuotaHits == 0 {
		t.Error("no quota hit was counted")
	}
}

// TestCapRevokeWhileBlockedFutex blocks a tenant waiter on a futex, then
// has a root task revoke the futex grant out from under it: the waiter
// must return a typed Revoked error rather than sleep forever.
func TestCapRevokeWhileBlockedFutex(t *testing.T) {
	ctx, ten := capContext(t, cap.Budget{}, map[cap.Kind]string{
		cap.VMA: "", cap.Futex: "",
	})
	s := NewScheduler(ctx, SchedShared, 0)
	v := NewVanilla(ctx)

	var tenProc, rootProc *Process
	var setupErr error
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		p, err := v.CreateProcess(pt, mem.NodeX86)
		if err != nil {
			setupErr = err
			return
		}
		p.Ten = ten
		tenProc = p
		rootProc, setupErr = v.CreateProcess(pt, mem.NodeX86)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}

	grant, ok := ctx.Caps.Table.Find(ten, cap.Futex, "")
	if !ok {
		t.Fatal("futex grant not found")
	}

	var waitErr, revokeErr error
	var revoked int
	ctx.Plat.Engine.Spawn("waiter", 0, func(th *sim.Thread) {
		task := NewTaskOn("waiter", tenProc, v, ctx, th, 0)
		s.Attach(task)
		defer s.Detach(task)
		va, err := task.Mmap(mem.PageSize, VMARead|VMAWrite, "futex")
		if err != nil {
			waitErr = err
			return
		}
		if err := task.Store(va, 8, 0); err != nil {
			waitErr = err
			return
		}
		waitErr = task.FutexWait(va, 0) // nothing will ever wake this word
	})
	ctx.Plat.Engine.Spawn("revoker", 400_000, func(th *sim.Thread) {
		task := NewTaskOn("revoker", rootProc, v, ctx, th, 0)
		s.Attach(task)
		defer s.Detach(task)
		revoked, revokeErr = task.RevokeCap(grant)
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if revokeErr != nil {
		t.Fatal(revokeErr)
	}
	if revoked != 1 {
		t.Errorf("revoked %d capabilities, want 1", revoked)
	}
	ce := wantCapError(t, waitErr, cap.Revoked, "blocked futex wait")
	if ce.ID != grant {
		t.Errorf("revoked cap ID = %d, want %d", ce.ID, grant)
	}
	if ten.Stats.Revocations != 1 {
		t.Errorf("tenant revocations = %d, want 1", ten.Stats.Revocations)
	}
}

// TestCapRootZeroCost proves the observer-effect-free root path: the same
// workload costs cycle-for-cycle the same on a machine with a capability
// namespace (running as root) as on one with no namespace at all.
func TestCapRootZeroCost(t *testing.T) {
	elapsed := func(withCaps bool) sim.Cycles {
		ctx := schedContext(t, 1, 1)
		if withCaps {
			ns := cap.NewNamespace()
			ns.NewTenant("bystander", cap.Budget{Frames: 1})
			ctx.Caps = ns
		}
		s := NewScheduler(ctx, SchedShared, 0)
		v := NewVanilla(ctx)
		var end sim.Cycles
		var bodyErr error
		ctx.Plat.Engine.Spawn("root", 0, func(th *sim.Thread) {
			pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
			proc, err := v.CreateProcess(pt, mem.NodeX86)
			if err != nil {
				bodyErr = err
				return
			}
			task := NewTaskOn("root", proc, v, ctx, th, 0)
			s.Attach(task)
			defer s.Detach(task)
			va, err := task.Mmap(2*mem.PageSize, VMARead|VMAWrite, "heap")
			if err != nil {
				bodyErr = err
				return
			}
			for i := 0; i < 64; i++ {
				if err := task.Store(va+pgtable.VirtAddr(i*8), 8, uint64(i)); err != nil {
					bodyErr = err
					return
				}
			}
			if _, err := task.FutexWake(va, 1); err != nil {
				bodyErr = err
				return
			}
			end = th.Now()
		})
		if err := ctx.Plat.Engine.Run(); err != nil {
			t.Fatal(err)
		}
		if bodyErr != nil {
			t.Fatal(bodyErr)
		}
		return end
	}
	without := elapsed(false)
	with := elapsed(true)
	if without != with {
		t.Errorf("root path cost changed: %d cycles without a namespace, %d with one", without, with)
	}
}
