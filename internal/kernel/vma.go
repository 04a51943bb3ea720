package kernel

import (
	"fmt"

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

// VMATree is the red-black interval tree of a process's memory areas,
// keyed by start address. Stramash-Linux keeps Linux's classic RB-tree
// VMA structure (§6.4, "still maintained using the RB-tree structure"),
// so this is a faithful re-implementation, not a Go map.
type VMATree struct {
	root *rbNode
	size int
}

type rbColor bool

const (
	red   rbColor = false
	black rbColor = true
)

type rbNode struct {
	vma                 *VMA
	color               rbColor
	left, right, parent *rbNode
}

// Len returns the number of areas in the tree.
func (t *VMATree) Len() int { return t.size }

// Insert adds a VMA. It returns an error if the area is empty, misaligned,
// or overlaps an existing area.
func (t *VMATree) Insert(v *VMA) error {
	if v.Start >= v.End {
		return fmt.Errorf("kernel: empty vma %v", v)
	}
	if ov := t.FindIntersect(v.Start, v.End); ov != nil {
		return fmt.Errorf("kernel: vma %v overlaps %v", v, ov)
	}
	n := &rbNode{vma: v, color: red}
	if t.root == nil {
		n.color = black
		t.root = n
		t.size++
		return nil
	}
	cur := t.root
	for {
		if v.Start < cur.vma.Start {
			if cur.left == nil {
				cur.left = n
				n.parent = cur
				break
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = n
				n.parent = cur
				break
			}
			cur = cur.right
		}
	}
	t.size++
	t.fixInsert(n)
	return nil
}

func (t *VMATree) rotateLeft(x *rbNode) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *VMATree) rotateRight(x *rbNode) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *VMATree) fixInsert(z *rbNode) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = black
}

// Find returns the VMA containing va, or nil.
func (t *VMATree) Find(va pgtable.VirtAddr) *VMA {
	cur := t.root
	for cur != nil {
		switch {
		case cur.vma.Contains(va):
			return cur.vma
		case va < cur.vma.Start:
			cur = cur.left
		default:
			cur = cur.right
		}
	}
	return nil
}

// FindIntersect returns any VMA overlapping [start, end), or nil.
func (t *VMATree) FindIntersect(start, end pgtable.VirtAddr) *VMA {
	cur := t.root
	for cur != nil {
		if start < cur.vma.End && cur.vma.Start < end {
			return cur.vma
		}
		if end <= cur.vma.Start {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return nil
}

// Remove deletes the VMA starting exactly at start, returning it, or nil.
// Deletion uses the standard transplant-and-refixup algorithm.
func (t *VMATree) Remove(start pgtable.VirtAddr) *VMA {
	z := t.root
	for z != nil && z.vma.Start != start {
		if start < z.vma.Start {
			z = z.left
		} else {
			z = z.right
		}
	}
	if z == nil {
		return nil
	}
	removed := z.vma
	t.size--

	y := z
	yColor := y.color
	var x *rbNode
	var xParent *rbNode
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = minimum(z.right)
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.fixDelete(x, xParent)
	}
	return removed
}

func (t *VMATree) transplant(u, v *rbNode) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func minimum(n *rbNode) *rbNode {
	for n.left != nil {
		n = n.left
	}
	return n
}

func isBlack(n *rbNode) bool { return n == nil || n.color == black }

func (t *VMATree) fixDelete(x *rbNode, parent *rbNode) {
	for x != t.root && isBlack(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.right) {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.left) {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = black
	}
}

// Walk visits every VMA in address order.
func (t *VMATree) Walk(fn func(*VMA) bool) {
	var rec func(n *rbNode) bool
	rec = func(n *rbNode) bool {
		if n == nil {
			return true
		}
		if !rec(n.left) {
			return false
		}
		if !fn(n.vma) {
			return false
		}
		return rec(n.right)
	}
	rec(t.root)
}

// CheckInvariants verifies the red-black properties and ordering; used by
// property tests.
func (t *VMATree) CheckInvariants() error {
	if t.root != nil && t.root.color != black {
		return fmt.Errorf("kernel: vma tree root is red")
	}
	var blackHeight = -1
	var last *VMA
	var rec func(n *rbNode, blacks int) error
	rec = func(n *rbNode, blacks int) error {
		if n == nil {
			if blackHeight == -1 {
				blackHeight = blacks
			} else if blacks != blackHeight {
				return fmt.Errorf("kernel: vma tree black-height mismatch %d vs %d", blacks, blackHeight)
			}
			return nil
		}
		if n.color == red {
			if !isBlack(n.left) || !isBlack(n.right) {
				return fmt.Errorf("kernel: red node %v has red child", n.vma)
			}
		} else {
			blacks++
		}
		if err := rec(n.left, blacks); err != nil {
			return err
		}
		if last != nil && n.vma.Start < last.Start {
			return fmt.Errorf("kernel: vma tree ordering violated at %v", n.vma)
		}
		last = n.vma
		return rec(n.right, blacks)
	}
	return rec(t.root, 0)
}
