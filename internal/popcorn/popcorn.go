// Package popcorn implements the multiple-kernel baseline OS personality:
// a shared-nothing design in the style of Popcorn-Linux [11]. Kernel
// instances never touch each other's memory directly; every cross-kernel
// interaction — page faults on remote pages, migrations, futex operations —
// travels as messages over the messaging layer (ring buffers over shared
// memory, or a TCP-like network path).
//
// User-level shared memory is provided by a software DSM protocol with
// page-granularity replication: remote reads replicate pages into local
// memory (read-only), writes invalidate remote copies and take exclusive
// ownership at the writer. This is the machinery whose costs Figures 9-12
// and Table 3 compare against the fused-kernel design.
package popcorn

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stats counts the baseline's cross-kernel activity.
type Stats struct {
	DSMPageRequests   int64
	DSMInvalidations  int64
	PageReplications  int64
	MigrationMessages int64
	FutexRPCs         int64
	VMAFetches        int64
}

// OS is the multiple-kernel personality.
type OS struct {
	Ctx  *kernel.Context
	Msgr *interconnect.Messenger

	// futexes lives at each process's origin kernel; remote kernels must
	// RPC to reach it.
	futexes map[int]*kernel.FutexTable
	// ctrlPages per process per node: the VMA/task control structures.
	// Each kernel has its own replica (shared-nothing).
	ctrlPages map[int][2]mem.PhysAddr
	// vmaReplicated tracks which VMAs the remote kernel has fetched.
	vmaReplicated map[int]map[pgtable.VirtAddr]bool
	// pageBusy serializes DSM fault handling per page, as Popcorn's page
	// server does: two concurrently faulting kernels must never observe
	// each other's transient protocol states. pageWait lists the tasks
	// parked on any of them.
	pageBusy map[pageKey]bool
	pageWait sim.Waiters

	Stats Stats
}

type pageKey struct {
	pid int
	va  pgtable.VirtAddr
}

// lockPage spins (in simulated time, sim.Thread.SpinWhile) until the
// page's DSM state machine is free, then claims it.
func (o *OS) lockPage(t *kernel.Task, va pgtable.VirtAddr) pageKey {
	k := pageKey{t.Proc.PID, va &^ (mem.PageSize - 1)}
	t.Th.SpinWhile("lock:dsm-page", &o.pageWait, 120, func() bool { return o.pageBusy[k] })
	o.pageBusy[k] = true
	return k
}

func (o *OS) unlockPage(k pageKey) {
	o.pageWait.Disturb()
	delete(o.pageBusy, k)
}

// emit sends a DSM protocol event with the task's context filled in.
func (o *OS) emit(t *kernel.Task, kind trace.Kind, va pgtable.VirtAddr, arg int64) {
	if tr := o.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: kind,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			VA: uint64(va), Arg: arg})
	}
}

var _ kernel.OS = (*OS)(nil)

// Kernel path lengths in retired instructions, scaled to the reproduction's
// workload sizes (§9.1.2: the icount tool counts kernel work too; the
// difference in these paths between transports and personalities is what
// makes the Figure 7 approximation err by a few percent, as on the real
// system). TCP's stack executes more instructions per message than the
// shared-memory ring path.
const (
	kinstrFaultEntry = 60
	kinstrMsgSHM     = 20
	kinstrMsgTCP     = 60
	kinstrPageServe  = 50
	kinstrMigration  = 800
)

// kinstrMsg returns the per-message kernel instruction count for the
// configured transport.
func (o *OS) kinstrMsg() int64 {
	if o.Msgr.Mode() == interconnect.TCP {
		return kinstrMsgTCP
	}
	return kinstrMsgSHM
}

// New builds the personality over a context and messenger.
func New(ctx *kernel.Context, msgr *interconnect.Messenger) *OS {
	return &OS{
		Ctx:           ctx,
		Msgr:          msgr,
		futexes:       make(map[int]*kernel.FutexTable),
		ctrlPages:     make(map[int][2]mem.PhysAddr),
		vmaReplicated: make(map[int]map[pgtable.VirtAddr]bool),
		pageBusy:      make(map[pageKey]bool),
	}
}

// Name implements kernel.OS.
func (o *OS) Name() string { return "popcorn-" + o.Msgr.Mode().String() }

// CreateProcess sets up per-kernel control structures for a new process.
func (o *OS) CreateProcess(pt *hw.Port, origin mem.NodeID) (*kernel.Process, error) {
	k := o.Ctx.Kernel(origin)
	proc := kernel.NewProcess(o.Ctx.NextPID(), origin)
	var pages [2]mem.PhysAddr
	for n := 0; n < 2; n++ {
		p, err := o.Ctx.Kernel(mem.NodeID(n)).AllocZeroedPage(pt)
		if err != nil {
			return nil, err
		}
		pages[n] = p
	}
	o.ctrlPages[proc.PID] = pages
	fp, err := k.AllocZeroedPage(pt)
	if err != nil {
		return nil, err
	}
	o.futexes[proc.PID] = kernel.NewFutexTable(fp)
	o.vmaReplicated[proc.PID] = make(map[pgtable.VirtAddr]bool)
	return proc, nil
}

// req encodes a small RPC request; payload layout:
// op(1) | pid(4) | va(8) | extra(8).
func req(op byte, pid int, va pgtable.VirtAddr, extra uint64) []byte {
	b := make([]byte, 21)
	b[0] = op
	binary.LittleEndian.PutUint32(b[1:], uint32(pid))
	binary.LittleEndian.PutUint64(b[5:], uint64(va))
	binary.LittleEndian.PutUint64(b[13:], extra)
	return b
}

// RPC op codes.
const (
	opPageRead   = 1
	opPageWrite  = 2
	opVMAFetch   = 3
	opFutexWait  = 4
	opFutexWake  = 5
	opInvalidate = 6
	opTaskState  = 7
)

// HandleFault implements kernel.OS: the origin-based DSM protocol.
func (o *OS) HandleFault(t *kernel.Task, va pgtable.VirtAddr, write bool) error {
	proc := t.Proc
	// VMA check. The remote kernel keeps a replicated VMA list; the first
	// fault inside a VMA it has not seen triggers a message exchange with
	// the origin (the "VMA fault" of §6.4).
	if t.Node != proc.Origin {
		v := proc.VMAs.Find(va)
		if v == nil {
			return fmt.Errorf("popcorn: segfault at %#x", va)
		}
		if !o.vmaReplicated[proc.PID][v.Start] {
			o.Stats.VMAFetches++
			o.Msgr.RPC(t.Port, func(remote *hw.Port, r []byte) []byte {
				// Origin looks up its authoritative VMA tree.
				kernel.VMALookupCost(remote, o.ctrlPages[proc.PID][proc.Origin], proc.VMAs.Len())
				resp := make([]byte, 64) // serialized vm_area_struct
				return resp
			}, req(opVMAFetch, proc.PID, va, 0))
			o.vmaReplicated[proc.PID][v.Start] = true
			o.emit(t, trace.KindVMAFetch, v.Start, 0)
		}
	}
	area, err := kernel.CheckVMA(proc, va, write)
	if err != nil {
		return err
	}
	kernel.VMALookupCost(t.Port, o.ctrlPages[proc.PID][t.Node], proc.VMAs.Len())
	t.Stats.NodeInstructions[t.Node] += kinstrFaultEntry
	if area.FileBacked() {
		// File pages live in the per-kernel page caches, whose own DSM
		// protocol (internal/vfs) serializes and messages as needed.
		return kernel.FileFaultIn(t, area, va, write)
	}

	k := o.lockPage(t, va)
	defer o.unlockPage(k)
	if t.Node == proc.Origin {
		return o.faultAtOrigin(t, va, write)
	}
	return o.faultAtRemote(t, va, write)
}

// faultAtOrigin resolves a fault taken by a task running at the origin.
func (o *OS) faultAtOrigin(t *kernel.Task, va pgtable.VirtAddr, write bool) error {
	proc := t.Proc
	origin := proc.Origin
	remote := kernel.Other(origin)
	meta := proc.Meta(va)

	switch {
	case meta.Frames[origin] == 0 && meta.Frames[remote] == 0:
		// Fresh anonymous page (no frame has ever backed it): allocate at
		// origin (Popcorn policy). Both-unmapped pages that *do* have
		// frames keep their content and take the fetch cases below.
		frame, err := o.Ctx.Kernel(origin).AllocZeroedPage(t.Port)
		if err != nil {
			return err
		}
		meta.FrameOwner[origin] = origin
		meta.DSM[origin] = kernel.DSMExclusive
		_, err = kernel.MapFrame(o.Ctx, t.Port, proc, origin, va, frame, true)
		return err

	case meta.Valid[origin] && !write:
		// Spurious read fault (e.g. raced with invalidation): remap.
		_, err := kernel.MapFrame(o.Ctx, t.Port, proc, origin, va, meta.Frames[origin], meta.DSM[origin] == kernel.DSMExclusive)
		return err

	case write && meta.DSM[remote] != kernel.DSMInvalid:
		// Other kernel holds a copy: invalidate it by message, then take
		// exclusive ownership. If the remote copy is the only valid one
		// (remote wrote last), fetch the page content first.
		if !meta.Valid[origin] || meta.DSM[remote] == kernel.DSMExclusive {
			if err := o.fetchPage(t, va, origin); err != nil {
				return err
			}
		}
		o.invalidateRemoteCopy(t, va, remote)
		meta.DSM[origin] = kernel.DSMExclusive
		_, err := kernel.MapFrame(o.Ctx, t.Port, proc, origin, va, meta.Frames[origin], true)
		return err

	case !meta.Valid[origin] && meta.DSM[remote] != kernel.DSMInvalid:
		// Read fault on a page living remotely: fetch a copy (replication).
		if err := o.fetchPage(t, va, origin); err != nil {
			return err
		}
		meta.DSM[origin] = kernel.DSMShared
		if meta.DSM[remote] == kernel.DSMExclusive {
			meta.DSM[remote] = kernel.DSMShared
			o.downgradeCopy(t, va, remote)
		}
		_, err := kernel.MapFrame(o.Ctx, t.Port, proc, origin, va, meta.Frames[origin], false)
		return err

	case write && meta.Valid[origin] && meta.DSM[origin] == kernel.DSMShared:
		// Upgrade: no remote copy exists anymore (handled above) — take E.
		meta.DSM[origin] = kernel.DSMExclusive
		_, err := kernel.MapFrame(o.Ctx, t.Port, proc, origin, va, meta.Frames[origin], true)
		return err
	}
	return fmt.Errorf("popcorn: unhandled origin fault state at %#x (write=%v, meta=%+v)", va, write, meta)
}

// faultAtRemote resolves a fault taken by a migrated task: every path goes
// through the origin kernel by RPC.
func (o *OS) faultAtRemote(t *kernel.Task, va pgtable.VirtAddr, write bool) error {
	proc := t.Proc
	origin := proc.Origin
	remote := t.Node
	meta := proc.Meta(va)
	o.Stats.DSMPageRequests++
	t.Stats.NodeInstructions[remote] += 2 * o.kinstrMsg()
	t.Stats.NodeInstructions[origin] += kinstrPageServe
	wr := int64(0)
	if write {
		wr = 1
	}
	o.emit(t, trace.KindDSMRequest, va, wr)

	op := byte(opPageRead)
	if write {
		op = opPageWrite
	}

	// The RPC carries the page content back for reads (and for writes when
	// the remote has no copy yet).
	needsContent := !meta.Valid[remote]
	respSize := 64
	if needsContent {
		respSize += mem.PageSize
	}
	o.Msgr.RPC(t.Port, func(originPt *hw.Port, r []byte) []byte {
		// Origin-side service routine.
		kernel.VMALookupCost(originPt, o.ctrlPages[proc.PID][origin], proc.VMAs.Len())
		if !meta.Valid[origin] && meta.DSM[origin] == kernel.DSMInvalid && !meta.Valid[remote] {
			// First touch happens remotely: origin still allocates the
			// backing page (Popcorn allocates anonymous pages at origin).
			frame, err := o.Ctx.Kernel(origin).AllocZeroedPage(originPt)
			if err != nil {
				return make([]byte, respSize)
			}
			meta.Frames[origin] = frame
			meta.FrameOwner[origin] = origin
			meta.DSM[origin] = kernel.DSMExclusive
			meta.Valid[origin] = true
			// Origin's own mapping is installed lazily on its next access;
			// metadata marks the frame as present at origin.
		}
		resp := o.Msgr.ReplyBuf(respSize)
		if needsContent {
			// Origin reads the page out of its memory into the message.
			originPt.ReadInto(meta.Frames[origin], resp[64:])
		}
		if write {
			// Writer takes exclusive ownership: origin drops its mapping.
			if meta.Valid[origin] {
				kernel.UnmapFrame(originPt, proc, origin, va)
			}
			meta.DSM[origin] = kernel.DSMInvalid
			o.Stats.DSMInvalidations++
			proc.InvalidationsDSM++
		} else if meta.DSM[origin] == kernel.DSMExclusive {
			// Reader downgrades origin to shared (write-protect).
			if meta.Valid[origin] {
				kernel.WriteProtect(originPt, proc, origin, va)
			}
			meta.DSM[origin] = kernel.DSMShared
		}
		return resp
	}, req(op, proc.PID, va, 0))

	// Remote side: materialize the replica.
	if needsContent {
		frame, err := o.Ctx.Kernel(remote).AllocZeroedPage(t.Port)
		if err != nil {
			return err
		}
		meta.Frames[remote] = frame
		meta.FrameOwner[remote] = remote
		// Copy the page payload out of the message into the replica.
		t.Port.InstallPage(frame, meta.Frames[origin])
		meta.Replications++
		proc.ReplicatedPages++
		o.Stats.PageReplications++
		o.emit(t, trace.KindPageReplicate, va, int64(remote))
	}
	if write {
		meta.DSM[remote] = kernel.DSMExclusive
	} else if meta.DSM[remote] == kernel.DSMInvalid {
		meta.DSM[remote] = kernel.DSMShared
	}
	_, err := kernel.MapFrame(o.Ctx, t.Port, proc, remote, va, meta.Frames[remote], write || meta.DSM[remote] == kernel.DSMExclusive)
	return err
}

// fetchPage pulls the authoritative page content to node by RPC (2
// messages + page payload) and stores it into node's frame (allocating one
// if needed).
func (o *OS) fetchPage(t *kernel.Task, va pgtable.VirtAddr, node mem.NodeID) error {
	proc := t.Proc
	other := kernel.Other(node)
	meta := proc.Meta(va)
	o.Stats.DSMPageRequests++
	t.Stats.NodeInstructions[node] += 2 * o.kinstrMsg()
	t.Stats.NodeInstructions[other] += kinstrPageServe
	o.Msgr.RPC(t.Port, func(remotePt *hw.Port, r []byte) []byte {
		resp := o.Msgr.ReplyBuf(64 + mem.PageSize)
		remotePt.ReadInto(meta.Frames[other], resp[64:])
		return resp
	}, req(opPageRead, proc.PID, va, 0))
	if !meta.Valid[node] || meta.Frames[node] == 0 {
		frame, err := o.Ctx.Kernel(node).AllocZeroedPage(t.Port)
		if err != nil {
			return err
		}
		meta.Frames[node] = frame
		meta.FrameOwner[node] = node
	}
	t.Port.InstallPage(meta.Frames[node], meta.Frames[other])
	meta.Replications++
	proc.ReplicatedPages++
	o.Stats.PageReplications++
	o.emit(t, trace.KindPageReplicate, va, int64(node))
	return nil
}

// invalidateRemoteCopy sends an invalidation message for va to node and
// tears down its mapping.
func (o *OS) invalidateRemoteCopy(t *kernel.Task, va pgtable.VirtAddr, node mem.NodeID) {
	proc := t.Proc
	meta := proc.Meta(va)
	o.Stats.DSMInvalidations++
	proc.InvalidationsDSM++
	t.Stats.NodeInstructions[t.Node] += 2 * o.kinstrMsg()
	o.emit(t, trace.KindDSMInvalidate, va, int64(node))
	o.Msgr.RPC(t.Port, func(remotePt *hw.Port, r []byte) []byte {
		if meta.Valid[node] {
			kernel.UnmapFrame(remotePt, proc, node, va)
		}
		meta.DSM[node] = kernel.DSMInvalid
		return make([]byte, 16)
	}, req(opInvalidate, proc.PID, va, 0))
}

// downgradeCopy write-protects node's copy after a remote read (E -> S).
func (o *OS) downgradeCopy(t *kernel.Task, va pgtable.VirtAddr, node mem.NodeID) {
	proc := t.Proc
	o.Msgr.RPC(t.Port, func(remotePt *hw.Port, r []byte) []byte {
		kernel.WriteProtect(remotePt, proc, node, va)
		return make([]byte, 16)
	}, req(opInvalidate, proc.PID, va, 1))
}

// MigrateTask implements kernel.OS: Popcorn-style message-based thread
// migration. The task's register state, FS state and control block travel
// as messages; the destination kernel reconstructs the task and faults
// pages in on demand afterwards.
func (o *OS) MigrateTask(t *kernel.Task, to mem.NodeID) error {
	if to == t.Node {
		return nil
	}
	proc := t.Proc
	t.Stats.NodeInstructions[t.Node] += kinstrMigration
	t.Stats.NodeInstructions[to] += kinstrMigration
	// Task state transfer: task struct + regset + fs + signal state.
	const stateMessages = 4
	for i := 0; i < stateMessages; i++ {
		o.Msgr.RPC(t.Port, func(remotePt *hw.Port, r []byte) []byte {
			// Destination kernel materializes the pieces.
			kernel.TouchStructure(remotePt, o.ctrlPages[proc.PID][to], 4)
			return make([]byte, 64)
		}, make([]byte, 256))
		o.Stats.MigrationMessages += 2
	}
	// Namespace synchronization: the destination kernel's replica is
	// refreshed so the environment looks identical (§6.6 without fusion).
	dstK := o.Ctx.Kernel(to)
	srcK := o.Ctx.Kernel(t.Node)
	if !dstK.NS.Equal(srcK.NS) {
		o.Msgr.RPC(t.Port, func(remotePt *hw.Port, r []byte) []byte {
			return make([]byte, 512)
		}, make([]byte, 512))
		o.Stats.MigrationMessages += 2
		*dstK.NS = *srcK.NS.Clone()
	}
	t.Rebind(to)
	return nil
}

// FutexWait implements kernel.OS: all futexes are managed by the origin
// kernel; a remote waiter must RPC to enqueue itself (§6.5). The value
// check runs under the origin's futex lock.
func (o *OS) FutexWait(t *kernel.Task, uaddr pgtable.VirtAddr, expected uint64) error {
	ft := o.futexes[t.Proc.PID]
	f := ft.Get(t.Proc.PID, uaddr)
	if t.Node == t.Proc.Origin {
		if err := f.CheckAndEnqueue(t.Port, t, uaddr, expected); err != nil {
			return err
		}
	} else {
		o.Stats.FutexRPCs++
		o.emit(t, trace.KindFutexRPC, uaddr, 0)
		// The waiter is enqueued origin-side partway through the RPC, so
		// from that point until the sleep below the task must not be
		// preempted — a run-queue block would swallow a wake that arrives
		// during the RPC's response leg.
		t.Th.DisablePreempt()
		var werr error
		o.Msgr.RPC(t.Port, func(originPt *hw.Port, r []byte) []byte {
			werr = f.CheckAndEnqueue(originPt, t, uaddr, expected)
			return make([]byte, 16)
		}, req(opFutexWait, t.Proc.PID, uaddr, expected))
		t.Th.EnablePreempt()
		if werr != nil {
			return werr
		}
	}
	t.FutexSleep(uaddr)
	return nil
}

// FutexWake implements kernel.OS.
func (o *OS) FutexWake(t *kernel.Task, uaddr pgtable.VirtAddr, n int) (int, error) {
	ft := o.futexes[t.Proc.PID]
	f := ft.Get(t.Proc.PID, uaddr)
	var woken []*kernel.Task
	if t.Node == t.Proc.Origin {
		f.Lock(t.Port)
		woken = f.Dequeue(t.Port, n)
		f.Unlock(t.Port)
	} else {
		o.Stats.FutexRPCs++
		o.emit(t, trace.KindFutexRPC, uaddr, 1)
		o.Msgr.RPC(t.Port, func(originPt *hw.Port, r []byte) []byte {
			f.Lock(originPt)
			woken = f.Dequeue(originPt, n)
			f.Unlock(originPt)
			return make([]byte, 16)
		}, req(opFutexWake, t.Proc.PID, uaddr, uint64(n)))
	}
	for _, w := range woken {
		if w.Node != t.Proc.Origin {
			// Waking a thread blocked on another kernel needs a message
			// from the origin to that kernel.
			o.Msgr.Notify(o.Ctx.Plat.NewPort(t.Proc.Origin, 0, t.Th), make([]byte, 64))
		}
		wakeLat := o.Ctx.Plat.Clock(w.Node).FromMicros(o.Ctx.Plat.Cfg.IPIMicros)
		w.Awaken(t.Th.Now() + wakeLat)
	}
	t.Stats.FutexWakes += int64(len(woken))
	o.emit(t, trace.KindFutexWake, uaddr, int64(len(woken)))
	return len(woken), nil
}

// ExitTask implements kernel.OS: each kernel frees the replicas it owns.
func (o *OS) ExitTask(t *kernel.Task) error {
	return kernel.ReleaseProcessPages(o.Ctx, t.Port, t.Proc)
}
