// Package kernel is the OS substrate shared by both operating-system
// personalities of the reproduction: per-node kernel instances with buddy
// page allocators over their firmware-assigned physical ranges (§6.1),
// red-black VMA trees, bit-accurate per-ISA page tables, processes and
// simulated tasks, futexes, and namespaces.
//
// The two personalities — the multiple-kernel baseline (internal/popcorn)
// and the fused-kernel OS (internal/stramash) — plug into this substrate
// through the OS interface: they differ in how page faults, futexes,
// migration and memory allocation cross the kernel boundary, which is
// exactly the delta the paper measures.
package kernel

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Kernel is one kernel instance: the OS running on one node (one ISA).
type Kernel struct {
	Node mem.NodeID
	Plat *hw.Platform
	// Fmt is the node's hardware page-table entry format.
	Fmt pgtable.Format
	// Alloc is the node's physical page allocator, seeded at boot with the
	// firmware-assigned ranges and grown/shrunk by the global allocator.
	Alloc *PageAlloc
	// NS is the kernel's namespace set. Under the fused personality both
	// kernels share one Namespaces instance (§6.6); under the
	// multiple-kernel personality each kernel has its own replica.
	NS *Namespaces

	// nextPID is the kernel-local PID cursor (origin kernel assigns PIDs).
	nextPID int
}

// BootConfig controls how much of the node's firmware-assigned memory the
// kernel instance initializes at boot (minimal resource provisioning, §5).
type BootConfig struct {
	// ReserveLow reserves the first ReserveLow bytes of the node's first
	// region for the kernel image and static data.
	ReserveLow uint64
	// MaxInitial caps the memory onlined at boot; 0 means all owned ranges.
	MaxInitial uint64
}

// Boot creates a kernel instance for node, reading the memory map from the
// platform layout ("BIOS tables/device trees", §6.1) and onlining its own
// ranges. Regions owned by no node stay in the global pool.
func Boot(plat *hw.Platform, node mem.NodeID, fmtr pgtable.Format, cfg BootConfig) (*Kernel, error) {
	k := &Kernel{
		Node:  node,
		Plat:  plat,
		Fmt:   fmtr,
		Alloc: NewPageAlloc(),
		NS:    NewNamespaces(fmt.Sprintf("stramash-%s", node)),
	}
	onlined := uint64(0)
	for i, r := range plat.Layout().OwnedRegions(node) {
		start, size := r.Start, r.Size
		if i == 0 && cfg.ReserveLow > 0 {
			if cfg.ReserveLow >= size {
				return nil, fmt.Errorf("kernel: reserve %d exceeds first region size %d", cfg.ReserveLow, size)
			}
			start += mem.PhysAddr(cfg.ReserveLow)
			size -= cfg.ReserveLow
		}
		if cfg.MaxInitial > 0 && onlined+size > cfg.MaxInitial {
			size = cfg.MaxInitial - onlined
			if size == 0 {
				break
			}
		}
		if err := k.Alloc.AddRange(start, size); err != nil {
			return nil, fmt.Errorf("kernel: booting %v: %w", node, err)
		}
		onlined += size
	}
	if k.Alloc.TotalPages() == 0 {
		return nil, fmt.Errorf("kernel: node %v booted with no memory", node)
	}
	return k, nil
}

// AllocCost is the simulated cost of a page allocation in kernel code
// (list manipulation, not the zeroing, which is charged via the port).
const AllocCost sim.Cycles = 150

// AllocZeroedPage allocates a frame from this kernel's buddy and zeroes it
// through pt (charging the caller's clock for both).
func (k *Kernel) AllocZeroedPage(pt *hw.Port) (mem.PhysAddr, error) {
	pt.T.Advance(AllocCost)
	pa, err := k.Alloc.AllocPage()
	if err != nil {
		return 0, err
	}
	if tr := k.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindPageAlloc,
			Node: int8(k.Node), Core: int16(pt.Core), Tid: int32(pt.T.ID), PA: uint64(pa)})
	}
	pt.ZeroPage(pa)
	return pa, nil
}

// AllocTablePage allocates and zeroes a page-table page. Kept separate from
// AllocZeroedPage so callers can account table pages distinctly.
func (k *Kernel) AllocTablePage(pt *hw.Port) (mem.PhysAddr, error) {
	return k.AllocZeroedPage(pt)
}

// NextPID returns a fresh process ID on this kernel.
func (k *Kernel) NextPID() int {
	k.nextPID++
	return k.nextPID
}

// Context bundles the per-machine state every OS personality needs.
type Context struct {
	Plat    *hw.Platform
	Kernels [2]*Kernel
	// VFS is the machine's mounted file system (nil until the machine
	// builder mounts one; file syscalls fail cleanly without it).
	VFS *vfs.Mount
	// Net is the machine's transport endpoint on a cluster fabric (nil on
	// standalone machines; socket syscalls fail cleanly without it).
	Net *net.Stack
	// Caps is the machine's tenancy namespace: the capability table plus
	// the configured tenants. Nil on single-tenant machines, where every
	// process runs as root and the gates cost one nil check.
	Caps *cap.Namespace

	// fileMaps is the reverse map from file pages to task mappings, fed by
	// FileFaultIn and consumed by FileInvalidateHook (file.go).
	fileMaps map[fileMapKey][]fileMapping

	// capBlocked registers tasks blocked inside a gated syscall, keyed by
	// the capability that authorized the block. RevokeCap walks it to
	// cancel mid-blocking waiters (invariant 13). Slices keep registration
	// order deterministic.
	capBlocked map[cap.CapID][]*Task
}

// capBlock registers t as blocked under capability id.
func (c *Context) capBlock(id cap.CapID, t *Task) {
	if c.capBlocked == nil {
		c.capBlocked = make(map[cap.CapID][]*Task)
	}
	c.capBlocked[id] = append(c.capBlocked[id], t)
}

// capUnblock removes t's registration under id.
func (c *Context) capUnblock(id cap.CapID, t *Task) {
	ts := c.capBlocked[id]
	for i, bt := range ts {
		if bt == t {
			c.capBlocked[id] = append(ts[:i], ts[i+1:]...)
			return
		}
	}
}

// Kernel returns the kernel instance of a node.
func (c *Context) Kernel(n mem.NodeID) *Kernel { return c.Kernels[n] }

// Other returns the peer node.
func Other(n mem.NodeID) mem.NodeID { return mem.NodeID(1 - int(n)) }

// OS is the operating-system personality: the set of policies that differ
// between the multiple-kernel baseline and the fused-kernel OS.
type OS interface {
	// Name identifies the personality ("vanilla", "popcorn", "stramash").
	Name() string
	// HandleFault resolves a page fault for t at page-aligned va. write
	// distinguishes read faults from write(-protection) faults. On success
	// the mapping for t's current node must be valid for the access.
	HandleFault(t *Task, va pgtable.VirtAddr, write bool) error
	// MigrateTask moves t's execution to node, carrying state per the
	// personality's protocol.
	MigrateTask(t *Task, to mem.NodeID) error
	// FutexWait blocks t until a wake on uaddr, but only if the userspace
	// word at uaddr still equals expected when checked under the futex
	// lock (FUTEX_WAIT semantics); otherwise it returns ErrFutexRetry.
	FutexWait(t *Task, uaddr pgtable.VirtAddr, expected uint64) error
	// FutexWake wakes up to n waiters on uaddr, returning the count woken.
	FutexWake(t *Task, uaddr pgtable.VirtAddr, n int) (int, error)
	// ExitTask releases t's resources (page reclaim policy differs, §6.4).
	ExitTask(t *Task) error
}
