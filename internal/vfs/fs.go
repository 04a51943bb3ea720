package vfs

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FS is the in-memory file system: a superblock worth of bookkeeping, an
// inode table, and a dentry tree. The structures themselves are host-side
// (like every kernel control structure in the reproduction), but lookups
// and mutations charge cache-line probes against a control page in
// simulated memory, so namespace traffic shows up in the timing model the
// same way VMA walks do.
type FS struct {
	ctrl    mem.PhysAddr
	root    *Inode
	byIno   map[int64]*Inode
	nextIno int64
}

// Inode is one file or directory.
type Inode struct {
	Ino  int64
	Dir  bool
	Size int64
	// Home is the node whose kernel created the inode: in the popcorn
	// regime it owns the authoritative copy, and dirty pages are written
	// back to it by Sync.
	Home  mem.NodeID
	Nlink int

	name     string
	parent   *Inode
	children map[string]*Inode
	// appendBusy is the inode's append lock (see LockAppend), appendWait
	// the appenders parked on it.
	appendBusy bool
	appendWait sim.Waiters
}

// RootIno is the root directory's inode number.
const RootIno = 1

// NewFS builds an empty file system whose charged control structures live
// at ctrl (one page).
func NewFS(ctrl mem.PhysAddr) *FS {
	root := &Inode{Ino: RootIno, Dir: true, Home: mem.NodeX86, Nlink: 2,
		name: "/", children: make(map[string]*Inode)}
	root.parent = root
	return &FS{
		ctrl:    ctrl,
		root:    root,
		byIno:   map[int64]*Inode{RootIno: root},
		nextIno: RootIno + 1,
	}
}

// ByIno looks an inode up by number (nil if absent).
func (fs *FS) ByIno(ino int64) *Inode { return fs.byIno[ino] }

// Components splits path into its walk components. Empty components
// (repeated slashes) and "." disappear; ".." is preserved for the walk to
// resolve against real parents. Leading '/' is irrelevant — every path
// resolves from the filesystem root. The function is pure (no simulated
// cost), which is what FuzzVFSPath exercises.
func Components(path string) ([]string, error) {
	if len(path) > PathMax {
		return nil, ErrPathTooLong
	}
	if path == "" {
		return nil, fmt.Errorf("%w: empty path", ErrNotExist)
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		default:
			if len(c) > NameMax {
				return nil, ErrNameTooLong
			}
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// fnv32 hashes a dentry name (FNV-1a) for the charged hash-table probe.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// dentryProbe charges the hash-chain probe for one component lookup: two
// cache-line reads of the dentry hash table living on the control page.
func (fs *FS) dentryProbe(pt *hw.Port, name string) {
	line := int(fnv32(name) % (mem.PageSize / mem.LineSize / 2))
	base := fs.ctrl + mem.PhysAddr(line*mem.LineSize)
	pt.ReadUint(base, 8)
	pt.ReadUint(base+mem.PhysAddr(mem.LineSize/2), 8)
}

// inodeTouch charges one cache-line access of the inode table slot.
func (fs *FS) inodeTouch(pt *hw.Port, ino int64, write bool) {
	slot := fs.ctrl + mem.PhysAddr(mem.PageSize/2) +
		mem.PhysAddr(int(ino)%(mem.PageSize/2/mem.LineSize)*mem.LineSize)
	if write {
		pt.WriteUint(slot, 8, uint64(ino))
	} else {
		pt.ReadUint(slot, 8)
	}
}

// Walk resolves path to an inode, charging one dentry probe per component.
func (fs *FS) Walk(pt *hw.Port, path string) (*Inode, error) {
	comps, err := Components(path)
	if err != nil {
		return nil, err
	}
	cur := fs.root
	for _, c := range comps {
		if !cur.Dir {
			return nil, fmt.Errorf("%w: %q in %q", ErrNotDir, cur.name, path)
		}
		if c == ".." {
			cur = cur.parent
			continue
		}
		fs.dentryProbe(pt, c)
		next, ok := cur.children[c]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
		}
		cur = next
	}
	return cur, nil
}

// WalkParent resolves everything but the final component, returning the
// parent directory and the final name. The final component must be a real
// name (not "", ".", or ".."), because it is about to be created/removed.
func (fs *FS) WalkParent(pt *hw.Port, path string) (*Inode, string, error) {
	comps, err := Components(path)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", fmt.Errorf("%w: path %q has no final component", ErrInvalid, path)
	}
	last := comps[len(comps)-1]
	if last == ".." {
		return nil, "", fmt.Errorf("%w: path %q ends in ..", ErrInvalid, path)
	}
	cur := fs.root
	for _, c := range comps[:len(comps)-1] {
		if !cur.Dir {
			return nil, "", fmt.Errorf("%w: %q in %q", ErrNotDir, cur.name, path)
		}
		if c == ".." {
			cur = cur.parent
			continue
		}
		fs.dentryProbe(pt, c)
		next, ok := cur.children[c]
		if !ok {
			return nil, "", fmt.Errorf("%w: %q", ErrNotExist, path)
		}
		cur = next
	}
	if !cur.Dir {
		return nil, "", fmt.Errorf("%w: %q in %q", ErrNotDir, cur.name, path)
	}
	return cur, last, nil
}

// create links a new inode under parent. home records the creating kernel.
func (fs *FS) create(pt *hw.Port, parent *Inode, name string, dir bool, home mem.NodeID) (*Inode, error) {
	fs.dentryProbe(pt, name)
	if _, ok := parent.children[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExist, name)
	}
	ino := &Inode{
		Ino: fs.nextIno, Dir: dir, Home: home, Nlink: 1,
		name: name, parent: parent,
	}
	if dir {
		ino.Nlink = 2
		ino.children = make(map[string]*Inode)
	}
	fs.nextIno++
	fs.byIno[ino.Ino] = ino
	parent.children[name] = ino
	// Charge the dentry insert and the inode-table slot initialization.
	fs.inodeTouch(pt, ino.Ino, true)
	fs.dentryInsertCost(pt, name)
	return ino, nil
}

// dentryInsertCost charges the hash-bucket write of a new dentry.
func (fs *FS) dentryInsertCost(pt *hw.Port, name string) {
	line := int(fnv32(name) % (mem.PageSize / mem.LineSize / 2))
	pt.WriteUint(fs.ctrl+mem.PhysAddr(line*mem.LineSize), 8, uint64(len(name)))
}

// unlink removes name from parent and returns the detached inode. The
// caller is responsible for dropping its page-cache pages. Directories
// must be empty.
func (fs *FS) unlink(pt *hw.Port, parent *Inode, name string) (*Inode, error) {
	fs.dentryProbe(pt, name)
	ino, ok := parent.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	if ino.Dir && len(ino.children) > 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotEmpty, name)
	}
	delete(parent.children, name)
	delete(fs.byIno, ino.Ino)
	ino.Nlink = 0
	ino.parent = nil
	// Charge the dentry removal and inode-table release.
	fs.dentryInsertCost(pt, name)
	fs.inodeTouch(pt, ino.Ino, true)
	return ino, nil
}
