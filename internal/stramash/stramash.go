// Package stramash implements the paper's primary contribution: the
// fused-kernel OS personality. Kernel instances coordinate through
// cache-coherent shared memory under the shared-mostly principle (§5):
//
//   - Page faults taken by a migrated task are resolved locally — the
//     remote kernel allocates anonymous pages from its own memory, inserts
//     them into its own page table, and writes the equivalent entry into
//     the origin kernel's page table in the origin ISA's format through the
//     software remote page-table walker (§6.4). No page replication, no
//     message round trips.
//   - VMA lookups for migrated tasks walk the origin kernel's VMA
//     structures directly over shared memory (software remote VMA walker).
//   - Concurrent page-table updates are serialized by a cross-ISA page
//     table lock (Stramash-PTL) built on the common CAS primitive (§6.5).
//   - Futexes are manipulated directly in shared memory by either kernel;
//     waking a thread on the other ISA costs a single cross-ISA IPI (§6.5).
//   - Physical memory moves between kernels in coarse blocks through the
//     global memory allocator (hotplug-style offline/evacuate/online, §6.3)
//     when a kernel's memory pressure passes 70%.
//   - Namespaces are fused: both kernels expose one namespace set (§6.6).
package stramash

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/trace"
)

// Stats counts fused-kernel mechanism activity.
type Stats struct {
	RemotePTWrites    int64 // PTEs written into the other kernel's table
	RemoteVMAWalks    int64
	PTLAcquisitions   int64
	CrossISAIPIWakes  int64
	OriginHandled     int64 // faults forwarded to origin (missing upper tables)
	RemoteAllocations int64 // anonymous pages allocated by the remote kernel
	GlobalBlockMoves  int64
}

// OS is the fused-kernel personality.
type OS struct {
	Ctx  *kernel.Context
	Msgr *interconnect.Messenger
	// Global is the global memory allocator managing shared blocks.
	Global *GlobalAllocator
	// DisableRemoteAlloc turns off PTE-level remote anonymous allocation:
	// every remotely-taken fresh fault defers to the origin kernel via the
	// legacy path, as if the §6.4 mechanism were absent. Used by the
	// remote-allocation ablation.
	DisableRemoteAlloc bool

	// futexes per process; the control blocks live in the origin kernel's
	// memory but both kernels access them directly (fused).
	futexes map[int]*kernel.FutexTable
	// ctrlPages: one control page per process, at the origin — the single
	// authoritative copy both kernels touch (fused kernel VAS).
	ctrlPages map[int]mem.PhysAddr
	// ptl is the per-process cross-ISA page-table lock word address.
	ptl map[int]mem.PhysAddr

	Stats Stats
}

var _ kernel.OS = (*OS)(nil)

// New builds the fused-kernel personality.
func New(ctx *kernel.Context, msgr *interconnect.Messenger) *OS {
	o := &OS{
		Ctx:       ctx,
		Msgr:      msgr,
		futexes:   make(map[int]*kernel.FutexTable),
		ctrlPages: make(map[int]mem.PhysAddr),
		ptl:       make(map[int]mem.PhysAddr),
	}
	o.Global = NewGlobalAllocator(ctx, DefaultGlobalConfig())
	// Fused namespaces: both kernel instances share one set (§6.6).
	fused := ctx.Kernels[0].NS
	fused.FuseCPULists([]int{ctx.Plat.Cfg.Cache.Nodes[0].Cores, ctx.Plat.Cfg.Cache.Nodes[1].Cores},
		[]string{"x86_64", "aarch64"})
	ctx.Kernels[1].NS = fused
	return o
}

// Name implements kernel.OS.
func (o *OS) Name() string { return "stramash" }

// CreateProcess allocates the single fused control page and futex block.
func (o *OS) CreateProcess(pt *hw.Port, origin mem.NodeID) (*kernel.Process, error) {
	k := o.Ctx.Kernel(origin)
	proc := kernel.NewProcess(k.NextPID(), origin)
	ctrl, err := k.AllocZeroedPage(pt)
	if err != nil {
		return nil, err
	}
	o.ctrlPages[proc.PID] = ctrl
	fp, err := k.AllocZeroedPage(pt)
	if err != nil {
		return nil, err
	}
	o.futexes[proc.PID] = kernel.NewFutexTable(fp)
	// The Stramash-PTL lock word lives on the control page.
	o.ptl[proc.PID] = ctrl + 512
	return proc, nil
}

// emit sends a fused-mechanism event with the task's context filled in.
func (o *OS) emit(t *kernel.Task, kind trace.Kind, va pgtable.VirtAddr, arg int64) {
	if tr := o.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: kind,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			VA: uint64(va), Arg: arg})
	}
}

// lockPTL acquires the cross-ISA page table lock (Stramash-PTL, §6.4).
func (o *OS) lockPTL(t *kernel.Task) {
	addr := o.ptl[t.Proc.PID]
	start := t.Th.Now()
	for i := 0; ; i++ {
		if _, ok := t.Port.CompareAndSwap64(addr, 0, uint64(t.Node)+1); ok {
			o.Stats.PTLAcquisitions++
			if tr := o.Ctx.Plat.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: int64(start), Kind: trace.KindPTLAcquire,
					Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
					PA: uint64(addr), Cost: int64(t.Th.Now() - start)})
			}
			return
		}
		t.Th.Advance(60)
		t.Th.YieldPoint()
		if i > 1_000_000 {
			panic("stramash: PTL livelock")
		}
	}
}

func (o *OS) unlockPTL(t *kernel.Task) {
	t.Port.Write64(o.ptl[t.Proc.PID], 0)
}

// allocNear allocates a zeroed page from node's kernel, triggering the
// global allocator when the node is under memory pressure (§6.3).
func (o *OS) allocNear(pt *hw.Port, node mem.NodeID) (mem.PhysAddr, error) {
	k := o.Ctx.Kernel(node)
	if k.Alloc.Pressure() > o.Global.Cfg.PressureThreshold {
		if err := o.Global.RequestBlock(pt, node); err == nil {
			o.Stats.GlobalBlockMoves++
			if tr := o.Ctx.Plat.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindGlobalBlockMove,
					Node: int8(node), Core: int16(pt.Core), Tid: int32(pt.T.ID), Arg: int64(node)})
			}
		}
		// A failed request is not fatal while free pages remain.
	}
	return k.AllocZeroedPage(pt)
}

// HandleFault implements kernel.OS — the Stramash page fault handler (§6.4).
func (o *OS) HandleFault(t *kernel.Task, va pgtable.VirtAddr, write bool) error {
	proc := t.Proc
	origin := proc.Origin
	node := t.Node

	// VMA lookup. A migrated task walks the origin's VMA structures
	// directly over cache-coherent shared memory, taking the VMA lock —
	// no messages (software remote VMA walker).
	if node != origin {
		o.Stats.RemoteVMAWalks++
	}
	// Fault-path kernel instructions (fused paths are short: no
	// serialization, no protocol state machines).
	t.Stats.NodeInstructions[node] += 60
	kernel.VMALookupCost(t.Port, o.ctrlPages[proc.PID], proc.VMAs.Len())
	area, err := kernel.CheckVMA(proc, va, write)
	if err != nil {
		return err
	}
	if area.FileBacked() {
		// File pages come from the shared page cache: one frame, mapped by
		// both kernels directly — no PTL ping-pong, no messages.
		return kernel.FileFaultIn(t, area, va, write)
	}

	o.lockPTL(t)
	defer o.unlockPTL(t)

	meta := proc.Meta(va)
	other := kernel.Other(node)

	// Case 1: the other kernel already mapped this page. The frame is
	// shared as-is over cache-coherent memory: read the other table's
	// entry with the remote walker, convert the format, map locally.
	if meta.Valid[other] {
		otherTbl := proc.Tables[other]
		ea, ok := otherTbl.LeafEntryAddr(t.Port, va)
		if !ok {
			return fmt.Errorf("stramash: other kernel's PTE vanished at %#x", va)
		}
		raw := t.Port.Read64(ea)
		conv, ok := pgtable.ConvertLeaf(o.Ctx.Kernel(node).Fmt, o.Ctx.Kernel(other).Fmt, raw)
		if !ok {
			return fmt.Errorf("stramash: unconvertible remote PTE %#x at %#x", raw, va)
		}
		pfn, perms, _ := o.Ctx.Kernel(node).Fmt.DecodeLeaf(conv)
		_ = perms
		frame := mem.PhysAddr(pfn << mem.PageShift)
		if _, err := kernel.MapFrame(o.Ctx, t.Port, proc, node, va, frame, true); err != nil {
			return err
		}
		meta.FrameOwner[node] = meta.FrameOwner[other]
		return nil
	}

	// Case 2: already valid here (write-upgrade or racing fault): remap.
	if meta.Valid[node] {
		_, err := kernel.MapFrame(o.Ctx, t.Port, proc, node, va, meta.Frames[node], true)
		return err
	}

	// Case 3: fresh anonymous page.
	if node == origin {
		frame, err := o.allocNear(t.Port, node)
		if err != nil {
			return err
		}
		meta.FrameOwner[node] = node
		o.Global.RegisterFrame(frame, proc, va)
		_, err = kernel.MapFrame(o.Ctx, t.Port, proc, node, va, frame, true)
		proc.FaultsHandled[node]++
		return err
	}

	// Remote kernel allocates locally without notifying the origin — but
	// only at the PTE level: if the origin table's upper levels for this
	// VA are missing, the origin kernel handles the fault instead
	// (prototype limitation, §9.2.3 — this is what keeps Table 3's
	// Stramash replication count non-zero for sparse access patterns).
	originTbl, err := kernel.EnsureTable(o.Ctx, t.Port, proc, origin)
	if err != nil {
		return err
	}
	if o.DisableRemoteAlloc {
		return o.originHandlesFault(t, va)
	}
	if _, upperPresent := originTbl.LeafEntryAddr(t.Port, va); !upperPresent {
		return o.originHandlesFault(t, va)
	}

	frame, err := o.allocNear(t.Port, node)
	if err != nil {
		return err
	}
	o.Stats.RemoteAllocations++
	proc.RemoteAllocs++
	meta.FrameOwner[node] = node
	o.Global.RegisterFrame(frame, proc, va)
	if _, err := kernel.MapFrame(o.Ctx, t.Port, proc, node, va, frame, true); err != nil {
		return err
	}
	// Insert into the origin's page table in the origin ISA's format via
	// the software remote page-table walker.
	ea, ok := originTbl.LeafEntryAddr(t.Port, va)
	if !ok {
		return fmt.Errorf("stramash: origin PTE slot vanished at %#x", va)
	}
	entry := o.Ctx.Kernel(origin).Fmt.EncodeLeaf(uint64(frame>>mem.PageShift),
		pgtable.Perms{Present: true, User: true, Write: true, Accessed: true})
	t.Port.Write64(ea, entry)
	o.Stats.RemotePTWrites++
	o.emit(t, trace.KindRemotePTWrite, va, int64(origin))
	meta.Frames[origin] = frame
	meta.Valid[origin] = true
	meta.FrameOwner[origin] = node
	proc.FlushTLB(origin, va)
	proc.FaultsHandled[node]++
	return nil
}

// originHandlesFault forwards a remote fault whose upper-level tables are
// missing in the origin's page table to the origin kernel (one message
// round trip, the prototype's legacy path, §9.2.3). The origin allocates
// the anonymous page from its own memory — Popcorn's placement policy —
// and installs it in the *remote* kernel's page table (the faulting
// process runs there; the origin's own table is populated lazily on its
// own next touch). Because the origin table's upper levels for the region
// are therefore never built by this path, every page of a
// remotely-first-touched region keeps taking it — which is exactly why
// FT's Table 3 count stays high (83% reduction) while the others reach
// >99.9%.
func (o *OS) originHandlesFault(t *kernel.Task, va pgtable.VirtAddr) error {
	proc := t.Proc
	origin := proc.Origin
	node := t.Node
	o.Stats.OriginHandled++
	proc.OriginHandled++
	o.emit(t, trace.KindOriginFault, va, 0)
	t.Stats.NodeInstructions[node] += 40
	t.Stats.NodeInstructions[origin] += 80
	var frame mem.PhysAddr
	var ferr error
	o.Msgr.RPC(t.Port, func(originPt *hw.Port, r []byte) []byte {
		// Origin-side legacy handler: allocate at origin, then write the
		// PTE into the remote kernel's table in the remote ISA's format
		// (remote page-table walker in the opposite direction).
		frame, ferr = o.Ctx.Kernel(origin).AllocZeroedPage(originPt)
		if ferr != nil {
			return make([]byte, 16)
		}
		meta := proc.Meta(va)
		meta.FrameOwner[node] = origin
		_, ferr = kernel.MapFrame(o.Ctx, originPt, proc, node, va, frame, true)
		return make([]byte, 16)
	}, make([]byte, 64))
	if ferr != nil {
		return ferr
	}
	o.Global.RegisterFrame(frame, proc, va)
	// The paper accounts pages that took this legacy path under Table 3's
	// Stramash "Replicated Pages" column.
	proc.ReplicatedPages++
	return nil
}

// MigrateTask implements kernel.OS: fused migration passes the execution
// context through shared memory; a single notification IPI (plus one
// state message for the non-shareable pieces) moves the task (§6.2, §6.4).
func (o *OS) MigrateTask(t *kernel.Task, to mem.NodeID) error {
	if to == t.Node {
		return nil
	}
	proc := t.Proc
	t.Stats.NodeInstructions[t.Node] += 250
	t.Stats.NodeInstructions[to] += 250
	ctrl := o.ctrlPages[proc.PID]
	// Write the register set and task context into shared memory (the
	// destination reads it from there — no serialization, §5).
	state := make([]byte, 512)
	t.Port.Write(ctrl+1024, state)
	// One message notifies the destination kernel to adopt the task.
	o.Msgr.Notify(t.Port, make([]byte, 64))
	// Destination kernel reads the context from shared memory.
	dstPt := o.Ctx.Plat.NewPort(to, t.Core, t.Th)
	t.Th.Advance(o.Ctx.Plat.Clock(to).FromMicros(o.Ctx.Plat.Cfg.IPIMicros))
	dstPt.Read(ctrl+1024, len(state))
	// Fused namespaces need no synchronization — both kernels already
	// share one set (§6.6).
	t.Rebind(to)
	return nil
}

// FutexWait implements kernel.OS: the remote kernel manipulates the futex
// list directly in shared memory (§6.5), including the value check under
// the cross-ISA lock — no origin round trip.
func (o *OS) FutexWait(t *kernel.Task, uaddr pgtable.VirtAddr, expected uint64) error {
	f := o.futexes[t.Proc.PID].Get(t.Proc.PID, uaddr)
	f.Lock(t.Port)
	if t.CapCancelPending() {
		// The authorizing capability was revoked between the syscall gate
		// and this enqueue: back out as a spurious wake; the gated wrapper
		// turns the pending cancel into a typed *CapError.
		f.Unlock(t.Port)
		return kernel.ErrFutexRetry
	}
	val, err := kernel.FutexLoadValue(o.Ctx, t.Port, t.Proc, uaddr)
	if err != nil {
		f.Unlock(t.Port)
		return err
	}
	if val != expected {
		f.Unlock(t.Port)
		return kernel.ErrFutexRetry
	}
	f.Enqueue(t.Port, t)
	f.Unlock(t.Port)
	t.Stats.FutexWaits++
	blockStart := t.Th.Now()
	t.Sleep("futex")
	if tr := o.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(blockStart), Kind: trace.KindFutexWait,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			VA: uint64(uaddr), Cost: int64(t.Th.Now() - blockStart)})
	}
	return nil
}

// FutexWake implements kernel.OS: direct list access; waking a waiter
// executing on the other ISA costs one cross-ISA IPI.
func (o *OS) FutexWake(t *kernel.Task, uaddr pgtable.VirtAddr, n int) (int, error) {
	f := o.futexes[t.Proc.PID].Get(t.Proc.PID, uaddr)
	f.Lock(t.Port)
	woken := f.Dequeue(t.Port, n)
	f.Unlock(t.Port)
	for _, w := range woken {
		if w.Node != t.Node {
			o.Ctx.Plat.SendIPI(t.Th, w.Node, w.Core)
			o.Stats.CrossISAIPIWakes++
			o.emit(t, trace.KindIPIWake, uaddr, int64(w.Node))
		}
		wakeLat := o.Ctx.Plat.Clock(w.Node).FromMicros(o.Ctx.Plat.Cfg.IPIMicros)
		w.Awaken(t.Th.Now() + wakeLat)
	}
	t.Stats.FutexWakes += int64(len(woken))
	o.emit(t, trace.KindFutexWake, uaddr, int64(len(woken)))
	return len(woken), nil
}

// ExitTask implements kernel.OS: §6.4's recycling discipline — each frame
// is returned by the kernel that allocated it; the origin merely
// invalidates PTEs for remote-owned frames.
func (o *OS) ExitTask(t *kernel.Task) error {
	for _, m := range t.Proc.Pages {
		for n := 0; n < 2; n++ {
			if m.Valid[n] {
				o.Global.UnregisterFrame(m.Frames[n])
			}
		}
	}
	return kernel.ReleaseProcessPages(o.Ctx, t.Port, t.Proc, func(node mem.NodeID, m *kernel.PageMeta) mem.NodeID {
		return m.FrameOwner[node]
	})
}
