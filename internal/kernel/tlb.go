package kernel

import (
	"repro/internal/mem"
	"repro/internal/pgtable"
)

// tlbSlots is the number of direct-mapped slots in a task's TLB front
// array. Must be a power of two.
const (
	tlbBits  = 11
	tlbSlots = 1 << tlbBits
)

// tlbEntry caches a virtual-to-physical translation on the task's node. An
// entry is live iff its epoch is non-zero and matches the owning taskTLB's
// current epoch; a full flush therefore invalidates every slot by bumping
// one counter instead of touching 2^tlbBits slots.
//
// Like a softmmu TLB entry, it also holds the frame's host bytes
// (mem.Physical.Frame), so a word access that hits moves its data with one
// host load or store instead of a frame lookup. host is nil while the frame
// has never been written, and is filled in once it has (setHost). It is
// host state only: which accesses hit and what they charge are the same
// with or without it.
type tlbEntry struct {
	vpn      pgtable.VirtAddr // page-aligned virtual address (tag)
	frame    mem.PhysAddr
	host     *[mem.PageSize]byte
	epoch    uint32
	writable bool
}

// taskTLB is a task's translation cache for the node it runs on. A task has
// one: Rebind flushes it, so no translation of the node the task left is
// ever looked up again (DESIGN.md §14). The *modelled* TLB is unbounded — a
// translation stays cached until it is explicitly shot down — because TLB
// misses charge a simulated page-table walk, so the reach of the
// translation cache is part of the timing contract and must not change
// with host data-structure choices (DESIGN.md §6, "The per-access path").
//
// It used to be a Go map, one hash per load/store plus a fresh map
// allocation on every flush. It is now a fixed-size direct-mapped array
// indexed by page number: a lookup on the hot path is one mask and one tag
// compare. Replacement is deterministic — a newly installed translation
// always takes its slot, and the displaced translation moves to a small
// overflow map so it remains visible (preserving the unbounded-TLB timing
// semantics exactly; the overflow is consulted only after a front-array tag
// mismatch, which is rare because working sets rarely alias mod tlbSlots).
// Flushes invalidate in place: no allocation on any TLB operation except
// overflow displacement.
type taskTLB struct {
	slots [tlbSlots]tlbEntry
	// epoch is the current validity generation. The zero value (epoch 0,
	// all slot epochs 0) is an empty TLB because slot epoch 0 is never
	// live; the first insert moves the generation to 1.
	epoch uint32
	over  map[pgtable.VirtAddr]tlbEntry // conflict overflow, lazily created
}

// tlbIndex maps a page-aligned VA to its direct-mapped slot. The page
// number is mixed with a Fibonacci multiplicative hash rather than
// truncated: NPB-style working sets stride by powers of two, so low-bit
// indexing aliases systematically (every 2^tlbBits-th page shares a slot)
// and shunts hot translations into the overflow map. The mix costs one
// multiply and decorrelates any fixed stride. Which slot a page lands in
// is invisible to the model — displaced entries remain visible through
// the overflow — so this is purely a host-side placement choice.
func tlbIndex(pva pgtable.VirtAddr) int {
	return int((uint64(pva>>mem.PageShift) * 0x9E3779B97F4A7C15) >> (64 - tlbBits))
}

// lookup returns the cached translation for the page-aligned address pva,
// with the frame's host bytes if the entry holds them.
func (tb *taskTLB) lookup(pva pgtable.VirtAddr) (frame mem.PhysAddr, host *[mem.PageSize]byte, writable, ok bool) {
	s := &tb.slots[tlbIndex(pva)]
	if s.vpn == pva && s.epoch == tb.epoch && s.epoch != 0 {
		return s.frame, s.host, s.writable, true
	}
	if len(tb.over) != 0 {
		if e, hit := tb.over[pva]; hit {
			return e.frame, e.host, e.writable, true
		}
	}
	return 0, nil, false, false
}

// setHost records host as the frame bytes of pva's live translation.
func (tb *taskTLB) setHost(pva pgtable.VirtAddr, host *[mem.PageSize]byte) {
	if s := &tb.slots[tlbIndex(pva)]; s.vpn == pva && s.epoch == tb.epoch && s.epoch != 0 {
		s.host = host
	} else if e, hit := tb.over[pva]; hit {
		e.host = host
		tb.over[pva] = e
	}
}

// insert installs a translation for pva. The slot's previous occupant, if
// any, is displaced into the overflow map rather than dropped — the
// modelled TLB never evicts on capacity.
func (tb *taskTLB) insert(pva pgtable.VirtAddr, frame mem.PhysAddr, host *[mem.PageSize]byte, writable bool) {
	if tb.epoch == 0 {
		tb.epoch = 1
	}
	s := &tb.slots[tlbIndex(pva)]
	if s.epoch == tb.epoch && s.vpn != pva {
		if tb.over == nil {
			tb.over = make(map[pgtable.VirtAddr]tlbEntry)
		}
		tb.over[s.vpn] = *s
	}
	*s = tlbEntry{vpn: pva, frame: frame, host: host, writable: writable, epoch: tb.epoch}
	if tb.over != nil {
		// The slot is now authoritative for pva; drop any stale overflow
		// copy (e.g. a read-only translation being upgraded after a fault).
		delete(tb.over, pva)
	}
}

// invalidate drops the translation for the page-aligned address pva.
func (tb *taskTLB) invalidate(pva pgtable.VirtAddr) {
	s := &tb.slots[tlbIndex(pva)]
	if s.vpn == pva {
		s.epoch = 0
	}
	if tb.over != nil {
		delete(tb.over, pva)
	}
}

// invalidateAll drops every translation in place, without allocating: one
// epoch bump retires the whole front array.
func (tb *taskTLB) invalidateAll() {
	tb.epoch++
	if tb.epoch == 0 {
		// Generation counter wrapped: scrub stale epochs so entries from
		// 2^32 flushes ago cannot resurface, then restart at 1.
		for i := range tb.slots {
			tb.slots[i].epoch = 0
		}
		tb.epoch = 1
	}
	clear(tb.over)
}

// size returns the number of live translations (test support).
func (tb *taskTLB) size() int {
	n := len(tb.over)
	if tb.epoch == 0 {
		return n
	}
	for i := range tb.slots {
		if tb.slots[i].epoch == tb.epoch {
			n++
		}
	}
	return n
}
