// Package vfs is the reproduction's in-memory, deterministic virtual file
// system: a superblock, inodes, a dentry layer with charged hash-probe
// lookups, per-task open-file descriptors, and a page cache whose data
// pages live in simulated physical memory. Every read, write, and
// mmap-style access moves real bytes through the existing translation +
// cache + MESI/CXL timing path, so file I/O costs real simulated cycles.
//
// The page cache comes in two coherence regimes behind one interface,
// mirroring the paper's central comparison:
//
//   - Fused (Stramash): one shared page cache. Both ISAs map and access
//     the same frames — preferentially placed in the CXL shared pool —
//     and cross-node access pays CXL snoop costs through the hardware
//     hierarchy. No kernel-to-kernel messages are ever needed.
//   - Popcorn: per-kernel page caches kept coherent by DSM-style
//     invalidate/writeback messages over the ring-buffer + IPI doorbell
//     interconnect (including the ring-full retry path), exactly like the
//     anonymous-page DSM in internal/popcorn.
//
// Invariant (guarded by the differential test): for any deterministic
// schedule, both regimes return byte-identical file contents on both
// nodes — they differ only in where the cycles go.
package vfs

import (
	"errors"

	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Regime selects the page-cache coherence protocol.
type Regime int

const (
	// RegimeAuto lets the machine builder derive the regime from the OS
	// personality (fused kernels share, multiple kernels replicate).
	RegimeAuto Regime = iota
	// RegimeFused is one shared page cache in shared memory.
	RegimeFused
	// RegimePopcorn is per-kernel page caches with DSM messaging.
	RegimePopcorn
)

func (r Regime) String() string {
	switch r {
	case RegimeFused:
		return "fused"
	case RegimePopcorn:
		return "popcorn"
	}
	return "auto"
}

// Namespace and path limits (POSIX-shaped).
const (
	// NameMax is the longest single path component.
	NameMax = 255
	// PathMax is the longest accepted path string.
	PathMax = 4096
)

// Protocol cost constants, in cycles, for work the simulated memory system
// cannot naturally express (host-side radix/map walks standing in for
// kernel structures).
const (
	// lookupCost is the page-cache radix walk per Frame call.
	lookupCost = 60
	// allocCost mirrors kernel.AllocCost for pool-tier page allocations.
	allocCost = 150
	// busySpinCost is one backoff step on a contended page lock.
	busySpinCost = 120
)

// Errors returned by namespace and descriptor operations.
var (
	ErrNotExist    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNameTooLong = errors.New("vfs: name too long")
	ErrPathTooLong = errors.New("vfs: path too long")
	ErrInvalid     = errors.New("vfs: invalid argument")
	ErrBadFD       = errors.New("vfs: bad file descriptor")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrPerm        = errors.New("vfs: operation not permitted")
)

// InvalidateHook lets the kernel tear down (or write-protect) every task
// mapping of file page (ino, idx) on node before the cache discards or
// downgrades that node's copy. pt may be a remote-node port when the
// downgrade runs inside a DSM service routine, so the table writes are
// charged against the right node's caches.
type InvalidateHook func(pt *hw.Port, ino, idx int64, node mem.NodeID, writeProtectOnly bool)

// Stats are the page-cache counters, per accessing node, plus the
// messaging-class cycles the popcorn protocol spends (always zero in the
// fused regime — that asymmetry is the experiment's shape check).
type Stats struct {
	Hits          [2]int64
	Misses        [2]int64
	Writebacks    [2]int64
	Invalidations [2]int64
	// MetaRPCs counts namespace operations (create/unlink/lookup
	// replication) forwarded between kernels in the popcorn regime.
	MetaRPCs int64
	// Syncs counts fsync calls per calling node — in both regimes, so a
	// persistence workload can prove its flush policy ran even where the
	// fused flush itself is free.
	Syncs [2]int64
	// MsgCycles accumulates, per requesting node, the simulated cycles
	// spent inside coherence and namespace RPCs.
	MsgCycles [2]sim.Cycles
}

// TotalMsgCycles sums the per-node RPC cycles.
func (s Stats) TotalMsgCycles() sim.Cycles { return s.MsgCycles[0] + s.MsgCycles[1] }

// PageCache is the regime-independent cache interface. Frame is the whole
// protocol: it returns the frame backing page idx of ino as reachable from
// pt's node, faulting it in (and running any coherence downgrades) under
// the page's protocol lock. write declares store intent — in the popcorn
// regime it acquires exclusive ownership and marks the page dirty. ten is
// the tenant the fault is charged to (nil = root, never charged): each
// frame the cache allocates on a tenant's behalf counts against its
// CacheFrames budget until the frame is freed, and a charge refused at
// budget fails the fault with a *cap.CapError.
type PageCache interface {
	Frame(pt *hw.Port, ten *cap.Tenant, ino *Inode, idx int64, write bool) (mem.PhysAddr, error)
	// Sync flushes ino's dirty pages (popcorn: writeback messages to the
	// inode's home kernel; fused: a no-op, shared memory is authoritative).
	Sync(pt *hw.Port, ino *Inode) error
	// Drop invalidates and frees every cached page of ino (unlink).
	Drop(pt *hw.Port, ino *Inode) error
	SetInvalidateHook(h InvalidateHook)
}

// pageKey identifies one file page in a cache.
type pageKey struct {
	ino int64
	idx int64
}

// emitPC emits one page-cache trace event: VA carries the byte offset of
// the page in the file, PA the backing frame, Arg the inode number.
func emitPC(tr trace.Tracer, pt *hw.Port, kind trace.Kind, node mem.NodeID, ino, idx int64, pa mem.PhysAddr) {
	if tr == nil {
		return
	}
	tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: kind,
		Node: int8(node), Core: int16(pt.Core), Tid: int32(pt.T.ID),
		VA: uint64(idx) * mem.PageSize, PA: uint64(pa), Arg: ino})
}

// pageLocks are a cache's per-page protocol locks. The simulation engine
// serializes execution on one token, so the flags need no host
// synchronization; the spin (sim.Thread.SpinWhile) makes concurrent faults
// on one page serialize in simulated time. The cache's waiters share one
// list: a release disturbs waiters on other pages too, which is exact.
type pageLocks struct {
	held map[pageKey]bool
	wait sim.Waiters
}

func newPageLocks() pageLocks { return pageLocks{held: make(map[pageKey]bool)} }

// lock spins until page k's lock is free, then takes it.
func (l *pageLocks) lock(pt *hw.Port, k pageKey) {
	pt.T.SpinWhile("lock:page", &l.wait, busySpinCost, func() bool { return l.held[k] })
	l.held[k] = true
}

func (l *pageLocks) unlock(k pageKey) {
	l.wait.Disturb()
	delete(l.held, k)
}

// LockAppend serializes append-mode writers on one inode. A write syscall
// reads end-of-file and then writes there; in the popcorn regime the write
// can block mid-transfer on page RPCs, opening a window where a second
// appender reads the same end-of-file and the records tear. Same idiom as
// pageLocks: the engine's execution token serializes the flag accesses, the
// spin serializes the appenders in simulated time.
func (ino *Inode) LockAppend(pt *hw.Port) {
	pt.T.SpinWhile("lock:append", &ino.appendWait, busySpinCost, func() bool { return ino.appendBusy })
	ino.appendBusy = true
}

// UnlockAppend releases LockAppend.
func (ino *Inode) UnlockAppend() {
	ino.appendWait.Disturb()
	ino.appendBusy = false
}
