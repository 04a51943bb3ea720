package kernel

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/trace"
)

// EnsureTable returns the process's page table for node, creating it from
// the node kernel's allocator on first use.
func EnsureTable(ctx *Context, pt *hw.Port, proc *Process, node mem.NodeID) (*pgtable.Table, error) {
	if proc.Tables[node] != nil {
		return proc.Tables[node], nil
	}
	k := ctx.Kernel(node)
	tbl, err := pgtable.New(pt, func() (mem.PhysAddr, error) { return k.AllocTablePage(pt) }, k.Fmt)
	if err != nil {
		return nil, err
	}
	proc.Tables[node] = tbl
	return tbl, nil
}

// MapFrame installs va -> frame into proc's page table on node with the
// given writability, charging the table walk and any intermediate table
// allocations to pt. It returns the number of intermediate tables created.
func MapFrame(ctx *Context, pt *hw.Port, proc *Process, node mem.NodeID, va pgtable.VirtAddr, frame mem.PhysAddr, writable bool) (int, error) {
	tbl, err := EnsureTable(ctx, pt, proc, node)
	if err != nil {
		return 0, err
	}
	meta := proc.Meta(va)
	// Anonymous-frame budget charge point: the page is charged to the
	// owning tenant exactly when its VA first becomes resident (no node
	// had it valid). File-backed pages are the page cache's frames and are
	// charged there; root processes (nil tenant) charge nothing. The check
	// runs before the table write so a refused charge leaves no mapping —
	// the personality frees the frame it allocated and surfaces the
	// *CapError through the fault path.
	if ten := proc.Ten; ten != nil && !meta.FileBacked && !meta.Valid[0] && !meta.Valid[1] {
		if err := ten.ChargeFrames(1); err != nil {
			if tr := ctx.Plat.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindQuotaHit,
					Node: int8(node), Core: int16(pt.Core), Tid: int32(pt.T.ID), VA: uint64(va)})
			}
			return 0, err
		}
	}
	k := ctx.Kernel(node)
	perms := pgtable.Perms{Present: true, User: true, Write: writable, Accessed: true}
	created, err := tbl.Map(pt, func() (mem.PhysAddr, error) { return k.AllocTablePage(pt) }, va, uint64(frame>>mem.PageShift), perms)
	if err != nil {
		return created, err
	}
	meta.Frames[node] = frame
	meta.Valid[node] = true
	proc.FlushTLB(node, va)
	return created, nil
}

// UnmapFrame clears va from proc's table on node and invalidates TLBs.
func UnmapFrame(pt *hw.Port, proc *Process, node mem.NodeID, va pgtable.VirtAddr) bool {
	tbl := proc.Tables[node]
	if tbl == nil {
		return false
	}
	ok := tbl.Unmap(pt, va)
	if m := proc.MetaIfAny(va); m != nil {
		was := m.Valid[node]
		m.Valid[node] = false
		// Uncharge the tenant when the VA's last residency disappears —
		// the inverse of MapFrame's first-residency charge.
		if was && !m.FileBacked && !m.Valid[0] && !m.Valid[1] {
			proc.Ten.UnchargeFrames(1)
		}
	}
	proc.FlushTLB(node, va)
	return ok
}

// WriteProtect downgrades va on node to read-only (DSM shared state).
func WriteProtect(pt *hw.Port, proc *Process, node mem.NodeID, va pgtable.VirtAddr) bool {
	tbl := proc.Tables[node]
	if tbl == nil {
		return false
	}
	ok := tbl.Protect(pt, va, func(p *pgtable.Perms) { p.Write = false })
	proc.FlushTLB(node, va)
	return ok
}

// VMALookupCost charges the cost of walking the process's VMA tree on the
// authoritative copy living in ctrlPage: an RB-tree descent touches
// O(log n) nodes; each probe is one cache-line read. Placing ctrlPage in
// another node's memory makes this a remote walk (the Stramash software
// remote VMA walker, §6.4).
func VMALookupCost(pt *hw.Port, ctrlPage mem.PhysAddr, treeSize int) {
	probes := 2
	for n := treeSize; n > 1; n /= 2 {
		probes++
	}
	for i := 0; i < probes; i++ {
		pt.ReadUint(ctrlPage+mem.PhysAddr((i*3%63)*mem.LineSize), 8)
	}
}

// CheckVMA validates that va falls in a VMA permitting the access.
func CheckVMA(proc *Process, va pgtable.VirtAddr, write bool) (*VMA, error) {
	v := proc.VMAs.Find(va)
	if v == nil {
		return nil, fmt.Errorf("kernel: segfault: no vma for %#x in pid %d", va, proc.PID)
	}
	if write && v.Flags&VMAWrite == 0 {
		return nil, fmt.Errorf("kernel: segfault: write to read-only vma %v", v)
	}
	return v, nil
}

// Vanilla is the no-migration baseline personality: one kernel instance
// runs the application locally (the "Vanilla" bars of Figure 9). Faults
// allocate local pages; migration is rejected; futexes are plain local
// operations.
type Vanilla struct {
	Ctx *Context
	// Futexes is the single-kernel futex table.
	Futexes *FutexTable
	// CtrlPages hold the per-process VMA control structures.
	ctrlPages map[int]mem.PhysAddr
}

// NewVanilla boots the vanilla personality over a context. The futex
// control page is allocated from the origin kernel at first use.
func NewVanilla(ctx *Context) *Vanilla {
	return &Vanilla{Ctx: ctx, ctrlPages: make(map[int]mem.PhysAddr)}
}

// Name implements OS.
func (v *Vanilla) Name() string { return "vanilla" }

// CreateProcess allocates process control state on the origin kernel.
func (v *Vanilla) CreateProcess(pt *hw.Port, origin mem.NodeID) (*Process, error) {
	k := v.Ctx.Kernel(origin)
	proc := NewProcess(v.Ctx.NextPID(), origin)
	ctrl, err := k.AllocZeroedPage(pt)
	if err != nil {
		return nil, err
	}
	v.ctrlPages[proc.PID] = ctrl
	if v.Futexes == nil {
		fp, err := k.AllocZeroedPage(pt)
		if err != nil {
			return nil, err
		}
		v.Futexes = NewFutexTable(fp)
	}
	return proc, nil
}

// HandleFault implements OS: demand-zero allocation on the faulting node,
// or a page-cache fault-in for file-backed areas.
func (v *Vanilla) HandleFault(t *Task, va pgtable.VirtAddr, write bool) error {
	area, err := CheckVMA(t.Proc, va, write)
	if err != nil {
		return err
	}
	t.Stats.NodeInstructions[t.Node] += 150
	VMALookupCost(t.Port, v.ctrlPages[t.Proc.PID], t.Proc.VMAs.Len())
	if area.FileBacked() {
		return FileFaultIn(t, area, va, write)
	}
	meta := t.Proc.Meta(va)
	if meta.Valid[t.Node] {
		// Present but the access needed write and the VMA allows it:
		// upgrade in place (vanilla never write-protects anon pages, so
		// this only happens for fresh metadata races; remap writable).
		_, err := MapFrame(v.Ctx, t.Port, t.Proc, t.Node, va, meta.Frames[t.Node], true)
		return err
	}
	k := v.Ctx.Kernel(t.Node)
	frame, err := k.AllocZeroedPage(t.Port)
	if err != nil {
		return err
	}
	// Racing faults: a sibling task of the same process can install this
	// page while the zeroing above yields. Re-check and install atomically —
	// the simulated equivalent of re-checking under the page-table lock —
	// so a racer that has already mapped and stored can never have its
	// frame orphaned by a later remap.
	t.Th.BeginAtomic()
	if meta.Valid[t.Node] {
		t.Th.EndAtomic()
		if err := k.Alloc.Free(frame); err != nil {
			return err
		}
		t.Th.Advance(AllocCost)
		return nil
	}
	meta.FrameOwner[t.Node] = t.Node
	writable := true
	_, err = MapFrame(v.Ctx, t.Port, t.Proc, t.Node, va, frame, writable)
	t.Th.EndAtomic()
	if err != nil {
		// A refused budget charge (or table failure) must not orphan the
		// frame allocated above.
		if ferr := k.Alloc.Free(frame); ferr != nil {
			return ferr
		}
		return err
	}
	t.Proc.FaultsHandled[t.Node]++
	return nil
}

// MigrateTask implements OS: vanilla has a single kernel instance.
func (v *Vanilla) MigrateTask(t *Task, to mem.NodeID) error {
	return fmt.Errorf("kernel: vanilla OS cannot migrate across kernels")
}

// FutexWait implements OS.
func (v *Vanilla) FutexWait(t *Task, uaddr pgtable.VirtAddr, expected uint64) error {
	if err := v.Futexes.Get(t.Proc.PID, uaddr).CheckAndEnqueue(t.Port, t, uaddr, expected); err != nil {
		return err
	}
	t.FutexSleep(uaddr)
	return nil
}

// FutexWake implements OS.
func (v *Vanilla) FutexWake(t *Task, uaddr pgtable.VirtAddr, n int) (int, error) {
	f := v.Futexes.Get(t.Proc.PID, uaddr)
	f.Lock(t.Port)
	woken := f.Dequeue(t.Port, n)
	f.Unlock(t.Port)
	for _, w := range woken {
		w.Awaken(t.Th.Now() + 500)
	}
	t.Stats.FutexWakes += int64(len(woken))
	if tr := v.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: trace.KindFutexWake,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			VA: uint64(uaddr), Arg: int64(len(woken))})
	}
	return len(woken), nil
}

// ExitTask implements OS: unmap and free everything.
func (v *Vanilla) ExitTask(t *Task) error {
	return ReleaseProcessPages(v.Ctx, t.Port, t.Proc)
}

// ReleaseProcessPages unmaps every page of proc and frees each frame to
// the allocator of the kernel that owns it (PageMeta.FrameOwner, or the
// mapping node when unrecorded). Used by every personality's exit path.
func ReleaseProcessPages(ctx *Context, pt *hw.Port, proc *Process) error {
	// Tear pages down in address order: the unmap writes and frame frees go
	// through the cache model and the buddy allocator, so iterating the map
	// directly would make the exit path's cycle count (and the allocator's
	// post-exit free-list shape) depend on Go's map iteration order.
	vas := make([]pgtable.VirtAddr, 0, len(proc.Pages))
	for va := range proc.Pages {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	freed := make(map[mem.PhysAddr]bool)
	for _, va := range vas {
		m := proc.Pages[va]
		for n := 0; n < 2; n++ {
			node := mem.NodeID(n)
			if !m.Valid[node] {
				continue
			}
			UnmapFrame(pt, proc, node, va)
			if m.FileBacked {
				// The frame belongs to the VFS page cache, which outlives
				// the process: unmap only, never free.
				continue
			}
			fr := m.Frames[node]
			if freed[fr] {
				continue
			}
			own := m.FrameOwner[node]
			if own == mem.NodeNone {
				own = node
			}
			if ctx.Kernel(own).Alloc.IsAllocated(fr) {
				if err := ctx.Kernel(own).Alloc.Free(fr); err != nil {
					return err
				}
				freed[fr] = true
				pt.T.Advance(AllocCost)
				if tr := ctx.Plat.Tracer; tr != nil {
					tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindPageFree,
						Node: int8(own), Core: int16(pt.Core), Tid: int32(pt.T.ID),
						VA: uint64(va), PA: uint64(fr)})
				}
			}
		}
	}
	proc.FlushAllTLBs()
	ctx.dropFileMaps(proc)
	return nil
}

// TouchStructure charges n cache-line reads of a kernel structure at base,
// modelling pointer-chasing through kernel objects.
func TouchStructure(pt *hw.Port, base mem.PhysAddr, lines int) {
	for i := 0; i < lines; i++ {
		pt.ReadUint(base+mem.PhysAddr(i*mem.LineSize), 8)
	}
}
