package kernel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/pgtable"
)

// VMAFlags describe a virtual memory area.
type VMAFlags uint32

// VMA flag bits.
const (
	// VMARead marks the area readable.
	VMARead VMAFlags = 1 << iota
	// VMAWrite marks the area writable.
	VMAWrite
	// VMAAnon marks demand-zero anonymous memory.
	VMAAnon
	// VMAShared marks the area shared between processes/kernels.
	VMAShared
)

// VMA is one virtual memory area [Start, End).
type VMA struct {
	Start pgtable.VirtAddr
	End   pgtable.VirtAddr
	Flags VMAFlags
	Name  string
	// FileIno backs the area with a vfs inode when non-zero: pages come
	// from the page cache instead of anonymous memory. FileOff is the file
	// offset mapped at Start.
	FileIno int64
	FileOff int64
}

// FileBacked reports whether pages of the area come from the page cache.
func (v *VMA) FileBacked() bool { return v.FileIno != 0 }

// Contains reports whether va falls inside the area.
func (v *VMA) Contains(va pgtable.VirtAddr) bool { return va >= v.Start && va < v.End }

func (v *VMA) String() string {
	return fmt.Sprintf("vma[%#x-%#x %s]", v.Start, v.End, v.Name)
}

// VMAList is a process's memory areas: non-overlapping, sorted by start
// address. Stramash-Linux keeps Linux's RB-tree VMAs (§6.4) so either
// kernel can walk the other ISA's tree in place; the model charges that
// descent in VMALookupCost from the area count alone, so the host copy
// only needs ordered lookup. Mmap's cursor only grows, so inserts append.
type VMAList struct {
	areas []*VMA
}

// Len returns the number of areas.
func (l *VMAList) Len() int { return len(l.areas) }

// search returns the index of the first area ending after va.
func (l *VMAList) search(va pgtable.VirtAddr) int {
	return sort.Search(len(l.areas), func(i int) bool { return l.areas[i].End > va })
}

// Insert adds a VMA. It returns an error if the area is empty or overlaps
// an existing area.
func (l *VMAList) Insert(v *VMA) error {
	if v.Start >= v.End {
		return fmt.Errorf("kernel: empty vma %v", v)
	}
	i := l.search(v.Start)
	if i < len(l.areas) && l.areas[i].Start < v.End {
		return fmt.Errorf("kernel: vma %v overlaps %v", v, l.areas[i])
	}
	l.areas = slices.Insert(l.areas, i, v)
	return nil
}

// Find returns the VMA containing va, or nil.
func (l *VMAList) Find(va pgtable.VirtAddr) *VMA {
	if i := l.search(va); i < len(l.areas) && l.areas[i].Contains(va) {
		return l.areas[i]
	}
	return nil
}

// Remove deletes the VMA starting exactly at start, returning it, or nil.
func (l *VMAList) Remove(start pgtable.VirtAddr) *VMA {
	i := l.search(start)
	if i == len(l.areas) || l.areas[i].Start != start {
		return nil
	}
	v := l.areas[i]
	l.areas = slices.Delete(l.areas, i, i+1)
	return v
}
