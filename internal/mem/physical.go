package mem

import (
	"encoding/binary"
	"fmt"
)

// The frame table is a two-level radix tree instead of a hash map: a frame
// number splits into a root index (upper bits) and a leaf index (lower
// frameLeafBits bits), so locating a frame's backing page is two array
// indexations and no hashing. A one-entry last-frame cache in front short-
// circuits the common case of consecutive byte accesses landing in the same
// 4 KiB frame. Frames whose numbers exceed the radix span (addresses beyond
// farLimit) spill into a plain map so arbitrary physical addresses keep
// working without growing the root without bound.
const (
	frameLeafBits = 10
	frameLeafSize = 1 << frameLeafBits // frames per leaf: 4 MiB of memory
	// farRootLimit caps the radix root at 1 Mi entries (8 MiB of pointers),
	// spanning 4 TiB of physical address space — far beyond the 8 GB
	// machine. Addresses above it are legal but take the spill map.
	farRootLimit = 1 << 20
)

// frameLeaf holds the backing pages of frameLeafSize consecutive frames.
type frameLeaf [frameLeafSize]*[PageSize]byte

// Physical is the byte-backed physical memory of the machine. The simulated
// address space spans several GB but is sparse: a 4 KiB frame is
// materialized on its first write, so a simulation only pays for the pages
// it stores to. Until then the frame reads as zeros and zeroing is a no-op.
//
// Physical is deliberately free of timing: latency and coherence are modelled
// by the cache layer, which calls into Physical only for data movement.
type Physical struct {
	layout Layout
	roots  []*frameLeaf               // radix root, grown on demand
	far    map[uint64]*[PageSize]byte // frames beyond the radix span
	count  int                        // materialized frames

	// Last-frame cache: the index and backing page of the most recently
	// touched frame, never zeroFrame. lastIdx starts out impossible.
	lastIdx   uint64
	lastFrame *[PageSize]byte
}

// NewPhysical creates physical memory with the given layout.
func NewPhysical(l Layout) *Physical {
	return &Physical{layout: l, lastIdx: ^uint64(0)}
}

// Layout returns the machine's memory map.
func (p *Physical) Layout() *Layout { return &p.layout }

// zeroFrame backs every read of a never-written frame. Nothing writes it.
var zeroFrame [PageSize]byte

// frame returns a's backing frame for a writer, materializing it if needed.
func (p *Physical) frame(a PhysAddr) *[PageSize]byte {
	idx := uint64(a) >> PageShift
	if idx == p.lastIdx {
		return p.lastFrame
	}
	return p.frameSlow(idx)
}

// frameSlow is the radix walk and materialization path behind the
// last-frame cache.
func (p *Physical) frameSlow(idx uint64) *[PageSize]byte {
	var f *[PageSize]byte
	root := idx >> frameLeafBits
	if root < farRootLimit {
		if root >= uint64(len(p.roots)) {
			grown := make([]*frameLeaf, root+1)
			copy(grown, p.roots)
			p.roots = grown
		}
		leaf := p.roots[root]
		if leaf == nil {
			leaf = new(frameLeaf)
			p.roots[root] = leaf
		}
		slot := &leaf[idx&(frameLeafSize-1)]
		if *slot == nil {
			*slot = new([PageSize]byte)
			p.count++
		}
		f = *slot
	} else {
		if p.far == nil {
			p.far = make(map[uint64]*[PageSize]byte)
		}
		f = p.far[idx]
		if f == nil {
			f = new([PageSize]byte)
			p.far[idx] = f
			p.count++
		}
	}
	p.lastIdx = idx
	p.lastFrame = f
	return f
}

// peek returns a's backing frame for a reader: zeroFrame if never written.
func (p *Physical) peek(a PhysAddr) *[PageSize]byte {
	idx := uint64(a) >> PageShift
	if idx == p.lastIdx {
		return p.lastFrame
	}
	return p.peekSlow(idx)
}

// peekSlow is peek's radix walk, kept out of line so peek inlines.
//
//go:noinline
func (p *Physical) peekSlow(idx uint64) *[PageSize]byte {
	var f *[PageSize]byte
	root := idx >> frameLeafBits
	if root >= farRootLimit {
		f = p.far[idx]
	} else if root < uint64(len(p.roots)) && p.roots[root] != nil {
		f = p.roots[root][idx&(frameLeafSize-1)]
	}
	if f == nil {
		return &zeroFrame
	}
	p.lastIdx = idx
	p.lastFrame = f
	return f
}

// CheckMapped returns an error if [a, a+n) is not fully covered by the
// layout's regions.
func (p *Physical) CheckMapped(a PhysAddr, n int) error {
	end := a + PhysAddr(n)
	for cur := a; cur < end; {
		r := p.layout.RegionAt(cur)
		if r == nil {
			return fmt.Errorf("mem: physical address %#x not mapped by any region", cur)
		}
		if r.End() >= end {
			break
		}
		cur = r.End()
	}
	return nil
}

// ReadInto fills dst with the bytes starting at a.
func (p *Physical) ReadInto(a PhysAddr, dst []byte) {
	for len(dst) > 0 {
		f := p.peek(a)
		off := int(a) & (PageSize - 1)
		n := copy(dst, f[off:])
		dst = dst[n:]
		a += PhysAddr(n)
	}
}

// Write stores src at address a.
func (p *Physical) Write(a PhysAddr, src []byte) {
	for len(src) > 0 {
		f := p.frame(a)
		off := int(a) & (PageSize - 1)
		n := copy(f[off:], src)
		src = src[n:]
		a += PhysAddr(n)
	}
}

// ReadUint loads up to 8 bytes at a, little-endian, without allocating: the
// value of the n bytes at a assembled as the simulated ISAs do. Bytes past the
// eighth do not contribute to the value (they would not fit a register).
func (p *Physical) ReadUint(a PhysAddr, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n > 8 {
		n = 8
	}
	off := int(a) & (PageSize - 1)
	var out uint64
	if off+n <= PageSize {
		f := p.peek(a)
		// Word sizes dominate; let them compile to single loads.
		switch n {
		case 8:
			return binary.LittleEndian.Uint64(f[off : off+8])
		case 4:
			return uint64(binary.LittleEndian.Uint32(f[off : off+4]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(f[off : off+2]))
		case 1:
			return uint64(f[off])
		}
		for i := 0; i < n; i++ {
			out |= uint64(f[off+i]) << (8 * uint(i))
		}
		return out
	}
	for i := 0; i < n; i++ {
		f := p.peek(a + PhysAddr(i))
		out |= uint64(f[(off+i)&(PageSize-1)]) << (8 * uint(i))
	}
	return out
}

// WriteUint stores n bytes of v at a, little-endian, without allocating.
// Bytes past the eighth are written as zero, exactly as Write would store
// them from a zero-extended buffer.
func (p *Physical) WriteUint(a PhysAddr, n int, v uint64) {
	if n <= 0 {
		return
	}
	off := int(a) & (PageSize - 1)
	if n <= 8 && off+n <= PageSize {
		f := p.frame(a)
		switch n {
		case 8:
			binary.LittleEndian.PutUint64(f[off:off+8], v)
			return
		case 4:
			binary.LittleEndian.PutUint32(f[off:off+4], uint32(v))
			return
		case 2:
			binary.LittleEndian.PutUint16(f[off:off+2], uint16(v))
			return
		case 1:
			f[off] = byte(v)
			return
		}
		for i := 0; i < n; i++ {
			f[off+i] = byte(v >> (8 * uint(i)))
		}
		return
	}
	for i := 0; i < n; i++ {
		var b byte
		if i < 8 {
			b = byte(v >> (8 * uint(i)))
		}
		f := p.frame(a + PhysAddr(i))
		f[(off+i)&(PageSize-1)] = b
	}
}

// Read64 loads a little-endian 64-bit value at a (used by page-table
// walkers, ring buffers and the simulated atomics).
func (p *Physical) Read64(a PhysAddr) uint64 {
	return p.ReadUint(a, 8)
}

// Write64 stores a little-endian 64-bit value at a.
func (p *Physical) Write64(a PhysAddr, v uint64) {
	p.WriteUint(a, 8, v)
}

// Read32 loads a little-endian 32-bit value at a.
func (p *Physical) Read32(a PhysAddr) uint32 {
	return uint32(p.ReadUint(a, 4))
}

// Write32 stores a little-endian 32-bit value at a.
func (p *Physical) Write32(a PhysAddr, v uint32) {
	p.WriteUint(a, 4, uint64(v))
}

// CompareAndSwap64 performs an atomic compare-and-swap on the 64-bit word at
// a, returning the previous value and whether the swap happened. Atomicity
// with respect to simulated time is the caller's job (the cache layer
// serializes it through the coherence protocol); this method provides the
// data-level primitive.
func (p *Physical) CompareAndSwap64(a PhysAddr, old, new uint64) (prev uint64, swapped bool) {
	prev = p.Read64(a)
	if prev == old {
		p.Write64(a, new)
		return prev, true
	}
	return prev, false
}

// CopyPage copies the 4 KiB page at src to dst. Both must be page-aligned.
// Copying a never-written src zeroes dst the way ZeroPage does.
func (p *Physical) CopyPage(dst, src PhysAddr) {
	if dst&(PageSize-1) != 0 || src&(PageSize-1) != 0 {
		panic(fmt.Sprintf("mem: CopyPage with unaligned addresses dst=%#x src=%#x", dst, src))
	}
	if s := p.peek(src); s != &zeroFrame {
		*p.frame(dst) = *s
	} else {
		p.ZeroPage(dst)
	}
}

// ZeroPage clears the 4 KiB page at a, in place. It must be page-aligned.
func (p *Physical) ZeroPage(a PhysAddr) {
	if a&(PageSize-1) != 0 {
		panic(fmt.Sprintf("mem: ZeroPage with unaligned address %#x", a))
	}
	if f := p.peek(a); f != &zeroFrame {
		*f = [PageSize]byte{}
	}
}

// SamePage reports whether the pages at a and b have identical contents.
func (p *Physical) SamePage(a, b PhysAddr) bool {
	fa := p.peek(a)
	return *fa == *p.peek(b)
}

// TouchedFrames returns the number of frames written at least once (useful
// in tests asserting that page replication really copies pages).
func (p *Physical) TouchedFrames() int { return p.count }
