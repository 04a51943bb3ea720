package stramash

import (
	"testing"

	"fmt"
	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"

	"repro/internal/sim"
)

// testSystem boots a context + fused OS over the given memory model.
func testSystem(t *testing.T, model mem.Model) (*kernel.Context, *OS) {
	t.Helper()
	plat := hw.NewPlatform(hw.DefaultConfig(model))
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
		base := plat.Layout().OwnedRegions(mem.NodeX86)[0].Start + (32 << 20)
		msgr := interconnect.NewMessenger(interconnect.DefaultConfig(interconnect.SHM, base), plat, pt)
		os = New(ctx, msgr)
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return ctx, os
}

// runTask creates one process+task and runs body.
func runTask(t *testing.T, ctx *kernel.Context, os *OS, origin mem.NodeID, body func(task *kernel.Task) error) {
	t.Helper()
	var proc *kernel.Process
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(origin, 0, th)
		proc, _ = os.CreateProcess(pt, origin)
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
}

func TestFusedNamespaceSharing(t *testing.T) {
	ctx, _ := testSystem(t, mem.Shared)
	if ctx.Kernels[0].NS != ctx.Kernels[1].NS {
		t.Fatal("kernels do not share a namespace set")
	}
	if len(ctx.Kernels[0].NS.CPUList) != 2 {
		t.Errorf("fused CPU list = %v", ctx.Kernels[0].NS.CPUList)
	}
}

func TestOriginHandledFaultOnMissingUpperLevels(t *testing.T) {
	ctx, os := testSystem(t, mem.Shared)
	runTask(t, ctx, os, mem.NodeX86, func(task *kernel.Task) error {
		// A huge sparse VMA: pages far apart live under different PMDs.
		base, err := task.Proc.Mmap(1<<30, kernel.VMARead|kernel.VMAWrite, "sparse")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 1); err != nil { // origin touch
			return err
		}
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		// Touch a page in a fresh 2 MB region: origin's PMD is missing,
		// so the origin must handle it (legacy path).
		if err := task.Store(base+512*mem.PageSize, 8, 2); err != nil {
			return err
		}
		// Touch the page right next to the origin-touched one: PTE-level
		// remote allocation (upper levels exist).
		if err := task.Store(base+mem.PageSize, 8, 3); err != nil {
			return err
		}
		return nil
	})
	if os.Stats.OriginHandled == 0 {
		t.Error("missing-upper-level fault was not forwarded to origin")
	}
	if os.Stats.RemoteAllocations == 0 {
		t.Error("PTE-level fault was not handled by remote allocation")
	}
}

func TestRemotePTWriteUsesOriginFormat(t *testing.T) {
	ctx, os := testSystem(t, mem.Shared)
	var proc *kernel.Process
	var va pgtable.VirtAddr
	runTask(t, ctx, os, mem.NodeX86, func(task *kernel.Task) error {
		proc = task.Proc
		base, err := task.Proc.Mmap(1<<20, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 1); err != nil {
			return err
		}
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		va = base + 4*mem.PageSize
		return task.Store(va, 8, 99)
	})
	// Read the origin (x86) table's raw PTE: it must decode under the x86
	// format and map the same frame the arm table maps.
	phys := ctx.Plat.Phys
	ea, ok := proc.Tables[mem.NodeX86].LeafEntryAddr(phys, va)
	if !ok {
		t.Fatal("origin PTE slot missing")
	}
	raw := phys.Read64(ea)
	pfn, perms, ok := pgtable.X86Format{}.DecodeLeaf(raw)
	if !ok || !perms.Write {
		t.Fatalf("origin PTE %#x does not decode as writable x86 leaf", raw)
	}
	armPfn, _, ok2 := proc.Tables[mem.NodeArm].Walk(phys, va)
	if !ok2 || armPfn != pfn {
		t.Errorf("frames differ: x86 %#x vs arm %#x", pfn, armPfn)
	}
}

func TestPTLMutualExclusion(t *testing.T) {
	ctx, os := testSystem(t, mem.Shared)
	var proc *kernel.Process
	ctx.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		proc, _ = os.CreateProcess(pt, mem.NodeX86)
		proc.Mmap(1<<20, kernel.VMARead|kernel.VMAWrite, "d")
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	// Two tasks hammer faults on disjoint pages concurrently; the PTL and
	// page metadata must stay consistent.
	for i := 0; i < 2; i++ {
		i := i
		ctx.Plat.Engine.Spawn("t", 0, func(th *sim.Thread) {
			task := kernel.NewTask("t", proc, os, ctx, th)
			for p := 0; p < 50; p++ {
				va := kernel.UserBase + pgtable.VirtAddr((p*2+i)*mem.PageSize)
				if err := task.Store(va, 8, uint64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if os.Stats.PTLAcquisitions == 0 {
		t.Error("no PTL acquisitions recorded")
	}
	// All 100 pages mapped exactly once.
	mapped := 0
	for _, m := range proc.Pages {
		if m.Valid[0] {
			mapped++
		}
	}
	if mapped != 100 {
		t.Errorf("mapped pages = %d, want 100", mapped)
	}
}

func TestGlobalAllocatorOnlineOffline(t *testing.T) {
	ctx, os := testSystem(t, mem.Shared)
	g := os.Global
	if g.FreeBlocks() == 0 {
		t.Fatal("no blocks carved from the CXL pool")
	}
	before := ctx.Kernels[0].Alloc.TotalPages()
	ctx.Plat.Engine.Spawn("t", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		blocks := g.blocks
		if err := g.Online(pt, mem.NodeX86, blocks[0]); err != nil {
			t.Error(err)
			return
		}
		if ctx.Kernels[0].Alloc.TotalPages() != before+int64(g.Cfg.BlockSize/mem.PageSize) {
			t.Error("online did not grow the kernel's memory")
		}
		if err := g.Online(pt, mem.NodeArm, blocks[0]); err == nil {
			t.Error("double online accepted")
		}
		if err := g.Offline(pt, blocks[0]); err != nil {
			t.Error(err)
			return
		}
		if blocks[0].Owner != mem.NodeNone {
			t.Error("offline did not release ownership")
		}
		if ctx.Kernels[0].Alloc.TotalPages() != before {
			t.Error("offline did not shrink the kernel's memory")
		}
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalAllocatorEvacuation(t *testing.T) {
	ctx, os := testSystem(t, mem.Shared)
	g := os.Global
	var proc *kernel.Process
	ctx.Plat.Engine.Spawn("t", 0, func(th *sim.Thread) {
		pt := ctx.Plat.NewPort(mem.NodeX86, 0, th)
		var err error
		proc, err = os.CreateProcess(pt, mem.NodeX86)
		if err != nil {
			t.Error(err)
			return
		}
		blk := g.blocks[0]
		if err := g.Online(pt, mem.NodeX86, blk); err != nil {
			t.Error(err)
			return
		}
		task := kernel.NewTask("t", proc, os, ctx, th)
		base, err := proc.Mmap(64<<10, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			t.Error(err)
			return
		}
		// Fill pages and then force some into the onlined block by direct
		// allocation + registration.
		for i := 0; i < 4; i++ {
			va := base + pgtable.VirtAddr(i*mem.PageSize)
			frame, err := ctx.Kernels[0].Alloc.AllocPages(0)
			_ = frame
			if err != nil {
				t.Error(err)
				return
			}
			ctx.Kernels[0].Alloc.Free(frame)
			if err := task.Store(va, 8, uint64(0x1111*i+7)); err != nil {
				t.Error(err)
				return
			}
		}
		// Manually migrate one page's frame into the block to make the
		// offline path do real evacuation work.
		va := base
		meta := proc.MetaIfAny(va)
		oldFrame := meta.Frames[0]
		inBlk, err := allocInside(ctx.Kernels[0].Alloc, blk)
		if err != nil {
			t.Error(err)
			return
		}
		pt.CopyPage(inBlk, oldFrame)
		if _, err := kernel.MapFrame(os.Ctx, pt, proc, mem.NodeX86, va, inBlk, true); err != nil {
			t.Error(err)
			return
		}
		g.UnregisterFrame(oldFrame)
		g.RegisterFrame(inBlk, proc, va)
		ctx.Kernels[0].Alloc.Free(oldFrame)

		// Offline must evacuate the page, preserving contents and mapping.
		if err := g.Offline(pt, blk); err != nil {
			t.Error(err)
			return
		}
		v, err := task.Load(va, 8)
		if err != nil {
			t.Error(err)
			return
		}
		if v != 7 {
			t.Errorf("post-evacuation value = %d, want 7", v)
		}
		meta = proc.MetaIfAny(va)
		if meta.Frames[0] >= blk.Start && meta.Frames[0] < blk.Start+mem.PhysAddr(blk.Size) {
			t.Error("page still inside offlined block")
		}
	})
	if err := ctx.Plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// allocInside grabs a page inside blk from the allocator by parking
// max-order blocks below it (freed afterwards).
func allocInside(a *kernel.PageAlloc, blk *Block) (mem.PhysAddr, error) {
	var parked []mem.PhysAddr
	defer func() {
		for _, p := range parked {
			a.Free(p)
		}
	}()
	end := blk.Start + mem.PhysAddr(blk.Size)
	for {
		p, err := a.AllocPages(kernel.MaxOrder)
		if err != nil {
			return 0, fmt.Errorf("allocInside: exhausted before reaching block")
		}
		if p >= blk.Start && p < end {
			// Release the big block and take its lowest page (everything
			// below is parked, so the next single page comes from here).
			if err := a.Free(p); err != nil {
				return 0, err
			}
			return a.AllocPage()
		}
		parked = append(parked, p)
	}
}

func TestProcessesOfBothOriginsGetDistinctState(t *testing.T) {
	// An x86-origin and an Arm-origin process live at once: per-process
	// state is keyed by PID, so the two must never share a PID.
	ctx, os := testSystem(t, mem.Shared)
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
		t.Errorf("processes share VMA control page %#x", os.ctrlPages[x])
	}
	if os.futexes[x] == os.futexes[a] {
		t.Error("processes share a futex table")
	}
	if os.ptl[x].word == os.ptl[a].word {
		t.Errorf("processes share page-table lock word %#x", os.ptl[x].word)
	}
}
