package kernel

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/vfs"
)

// DSMState is the per-node software-coherence state of a page under the
// multiple-kernel baseline's distributed shared memory protocol.
type DSMState int

const (
	// DSMInvalid: this node has no valid copy.
	DSMInvalid DSMState = iota
	// DSMShared: this node holds a read-only replica.
	DSMShared
	// DSMExclusive: this node holds the only writable copy.
	DSMExclusive
)

func (s DSMState) String() string {
	switch s {
	case DSMInvalid:
		return "I"
	case DSMShared:
		return "S"
	case DSMExclusive:
		return "E"
	}
	return "?"
}

// PageMeta is the kernel bookkeeping for one user page (one page-aligned
// VA of a process).
type PageMeta struct {
	// Frames holds the physical frame per node. Under the fused-kernel OS
	// both entries are the same frame (no replication); under the
	// multiple-kernel baseline they may be distinct replicas.
	Frames [2]mem.PhysAddr
	// Valid reports whether the node's page table currently maps the page.
	Valid [2]bool
	// FrameOwner records which kernel's allocator owns each frame, so exit
	// returns pages to the right allocator (§6.4: "the origin kernel only
	// invalidates the PTE and does not attempt to release the page").
	FrameOwner [2]mem.NodeID
	// DSM is the software-coherence state per node (baseline only).
	DSM [2]DSMState
	// Replications counts page copies made for this page (Table 3).
	Replications int64
	// FileBacked marks pages whose frames belong to the VFS page cache:
	// exit unmaps them but must never free them — the cache outlives the
	// process.
	FileBacked bool
}

// Process is one user process. Its address space is described once (VMA
// list) but realized per node: each kernel instance keeps a page table in
// its own hardware format referring — depending on the personality — to
// shared frames or to replicas.
type Process struct {
	PID    int
	Origin mem.NodeID
	// Ten is the tenant owning the process; nil is the root tenant, for
	// which every capability gate is a single host-side nil check
	// (observer-effect-free, like the nil tracer).
	Ten  *cap.Tenant
	VMAs VMAList
	// Tables are the per-node page tables (nil until first used there).
	Tables [2]*pgtable.Table
	// Pages maps page-aligned VAs to their metadata.
	Pages map[pgtable.VirtAddr]*PageMeta

	// mmapCursor is the next address for anonymous mappings.
	mmapCursor pgtable.VirtAddr

	// Tasks are the live tasks of the process (for TLB shootdown).
	Tasks []*Task

	// Counters for the evaluation (Table 3).
	FaultsHandled    [2]int64
	RemoteAllocs     int64
	OriginHandled    int64 // faults the origin had to handle for a remote task
	ReplicatedPages  int64
	InvalidationsDSM int64
}

// UserBase is where anonymous mappings start; high enough to stay clear of
// code and control structures.
const UserBase pgtable.VirtAddr = 0x0000_2000_0000_0000

// NewProcess creates a process originating on origin.
func NewProcess(pid int, origin mem.NodeID) *Process {
	return &Process{
		PID:        pid,
		Origin:     origin,
		Pages:      make(map[pgtable.VirtAddr]*PageMeta),
		mmapCursor: UserBase,
	}
}

// Mmap reserves an anonymous VMA of length bytes (rounded up to pages) and
// returns its base. Pages are faulted in on demand.
func (p *Process) Mmap(length uint64, flags VMAFlags, name string) (pgtable.VirtAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("kernel: mmap of zero length")
	}
	length = (length + mem.PageSize - 1) &^ (mem.PageSize - 1)
	base := p.mmapCursor
	v := &VMA{Start: base, End: base + pgtable.VirtAddr(length), Flags: flags | VMAAnon, Name: name}
	if err := p.VMAs.Insert(v); err != nil {
		return 0, err
	}
	// Leave a guard page between mappings.
	p.mmapCursor = v.End + mem.PageSize
	return base, nil
}

// MmapFile reserves a shared file-backed VMA of length bytes over ino,
// with fileOff mapped at the base. Pages fault in from the page cache.
func (p *Process) MmapFile(length uint64, flags VMAFlags, ino *vfs.Inode, fileOff int64) (pgtable.VirtAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("kernel: mmap of zero length")
	}
	length = (length + mem.PageSize - 1) &^ (mem.PageSize - 1)
	base := p.mmapCursor
	v := &VMA{Start: base, End: base + pgtable.VirtAddr(length),
		Flags: flags | VMAShared, Name: fmt.Sprintf("file-ino%d", ino.Ino),
		FileIno: ino.Ino, FileOff: fileOff}
	if err := p.VMAs.Insert(v); err != nil {
		return 0, err
	}
	p.mmapCursor = v.End + mem.PageSize
	return base, nil
}

// MmapAligned is Mmap with the base aligned up to align bytes (a power of
// two). Large-array workloads use 2 MiB alignment so each array occupies
// its own upper-level page-table regions, as multi-megabyte NPB arrays do
// on the real system.
func (p *Process) MmapAligned(length uint64, align uint64, flags VMAFlags, name string) (pgtable.VirtAddr, error) {
	if align&(align-1) != 0 || align == 0 {
		return 0, fmt.Errorf("kernel: mmap alignment %d not a power of two", align)
	}
	p.mmapCursor = (p.mmapCursor + pgtable.VirtAddr(align-1)) &^ pgtable.VirtAddr(align-1)
	return p.Mmap(length, flags, name)
}

// Munmap removes the VMA starting at base. The caller unmaps pages first.
func (p *Process) Munmap(base pgtable.VirtAddr) error {
	if p.VMAs.Remove(base) == nil {
		return fmt.Errorf("kernel: munmap of unknown vma at %#x", base)
	}
	return nil
}

// Meta returns (creating if needed) the metadata of the page containing va.
func (p *Process) Meta(va pgtable.VirtAddr) *PageMeta {
	pva := va &^ (mem.PageSize - 1)
	m := p.Pages[pva]
	if m == nil {
		m = &PageMeta{FrameOwner: [2]mem.NodeID{mem.NodeNone, mem.NodeNone}}
		p.Pages[pva] = m
	}
	return m
}

// MetaIfAny returns the page metadata if it exists.
func (p *Process) MetaIfAny(va pgtable.VirtAddr) *PageMeta {
	return p.Pages[va&^(mem.PageSize-1)]
}

// FlushTLB removes the translation for va from every task of the process
// currently on node (TLB shootdown after a PTE downgrade).
func (p *Process) FlushTLB(node mem.NodeID, va pgtable.VirtAddr) {
	pva := va &^ (mem.PageSize - 1)
	for _, t := range p.Tasks {
		if t.Node == node {
			if t.spin != nil && t.spin.watchesPage(pva) {
				t.spin.disturb()
			}
			t.tlb.invalidate(pva)
		}
	}
}

// FlushAllTLBs drops every cached translation on all tasks (migration,
// exit). Entries are invalidated in place — no reallocation, no garbage.
func (p *Process) FlushAllTLBs() {
	for _, t := range p.Tasks {
		t.spin.disturb()
		t.tlb.invalidateAll()
	}
}

// CountReplicatedPages returns pages whose two frames are distinct live
// copies (Table 3's "Replicated Pages" at a point in time is tracked by
// the Replications counter; this helper reports the instantaneous view).
func (p *Process) CountReplicatedPages() int {
	n := 0
	for _, m := range p.Pages {
		if m.Valid[0] && m.Valid[1] && m.Frames[0] != m.Frames[1] {
			n++
		}
	}
	return n
}
