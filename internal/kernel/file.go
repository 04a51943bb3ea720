package kernel

import (
	"errors"
	"fmt"

	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// File syscall costs: the trap/return overhead in cycles and the kernel
// instructions retired per syscall entry (on top of the charged namespace
// probes and page-cache traffic).
const (
	fileSyscallCost   sim.Cycles = 120
	kinstrFileSyscall            = 90
)

// mount returns the machine's mounted file system.
func (t *Task) mount() (*vfs.Mount, error) {
	if t.Ctx == nil || t.Ctx.VFS == nil {
		return nil, fmt.Errorf("kernel: no filesystem mounted")
	}
	return t.Ctx.VFS, nil
}

// enterFS charges one file-syscall entry and resolves the mount.
func (t *Task) enterFS() (*vfs.Mount, error) {
	m, err := t.mount()
	if err != nil {
		return nil, err
	}
	t.Th.Advance(fileSyscallCost)
	t.Stats.NodeInstructions[t.Node] += kinstrFileSyscall
	return m, nil
}

// FDs returns the task's descriptor table, created on first use. Each
// task owns its table (clone without CLONE_FILES).
func (t *Task) FDs() *vfs.FDTable {
	if t.fds == nil {
		t.fds = vfs.NewFDTable()
	}
	return t.fds
}

// fdFile resolves fd to a regular-file description, rejecting socket
// descriptors: byte-stream verbs on a socket go through the Sock syscalls
// (socket.go), never through the page cache.
func (t *Task) fdFile(fd int) (*vfs.File, error) {
	f, err := t.FDs().Get(fd)
	if err != nil {
		return nil, err
	}
	if f.Sock != nil {
		return nil, fmt.Errorf("%w: fd %d is a socket", vfs.ErrInvalid, fd)
	}
	// The handle gate: the FD's bound capability must still be live, so a
	// revoke fails the holder's next file syscall with a typed error.
	if err := t.capCheckHandle(f.Cap, cap.File, "fd"); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFile opens path; with vfs.OCreate it creates a missing file, and
// with vfs.OTrunc|vfs.OWrite it drops existing contents.
func (t *Task) OpenFile(path string, flags vfs.OpenFlags) (int, error) {
	m, err := t.enterFS()
	if err != nil {
		return -1, err
	}
	pathCap, err := t.capAuthorize(cap.File, path, "open")
	if err != nil {
		return -1, err
	}
	ino, err := m.Resolve(t.Port, path)
	switch {
	case err == nil:
		if ino.Dir {
			return -1, fmt.Errorf("%w: %q", vfs.ErrIsDir, path)
		}
	case errors.Is(err, vfs.ErrNotExist) && flags&vfs.OCreate != 0:
		if ino, err = m.Create(t.Port, path, false); err != nil {
			return -1, err
		}
	default:
		return -1, err
	}
	if flags&vfs.OTrunc != 0 && flags&vfs.OWrite != 0 {
		if err := m.Truncate(t.Port, ino, 0); err != nil {
			return -1, err
		}
	}
	fileCap, err := t.deriveCap(pathCap, cap.File, path)
	if err != nil {
		return -1, err
	}
	return t.FDs().Install(&vfs.File{Ino: ino, Flags: flags, Cap: fileCap}), nil
}

// CreateFile is open(path, O_RDWR|O_CREAT|O_TRUNC).
func (t *Task) CreateFile(path string) (int, error) {
	return t.OpenFile(path, vfs.ORDWR|vfs.OCreate|vfs.OTrunc)
}

// CloseFile releases a descriptor. Socket descriptors are routed to the
// transport close path (FIN + connection teardown), so close(2) works
// uniformly across the table.
func (t *Task) CloseFile(fd int) error {
	if f, err := t.FDs().Get(fd); err == nil && f.Sock != nil {
		return t.CloseSock(fd)
	}
	if _, err := t.enterFS(); err != nil {
		return err
	}
	return t.FDs().Close(fd)
}

// Mkdir creates a directory at path.
func (t *Task) Mkdir(path string) error {
	m, err := t.enterFS()
	if err != nil {
		return err
	}
	if _, err := t.capAuthorize(cap.File, path, "mkdir"); err != nil {
		return err
	}
	_, err = m.Create(t.Port, path, true)
	return err
}

// UnlinkFile removes path, invalidating every cached copy of its pages.
func (t *Task) UnlinkFile(path string) error {
	m, err := t.enterFS()
	if err != nil {
		return err
	}
	if _, err := t.capAuthorize(cap.File, path, "unlink"); err != nil {
		return err
	}
	return m.Unlink(t.Port, path)
}

// ReadFileAt reads up to len(p) bytes at offset off (pread).
func (t *Task) ReadFileAt(fd int, p []byte, off int64) (int, error) {
	m, err := t.enterFS()
	if err != nil {
		return 0, err
	}
	f, err := t.fdFile(fd)
	if err != nil {
		return 0, err
	}
	if f.Flags&vfs.ORead == 0 {
		return 0, fmt.Errorf("%w: fd %d not open for reading", vfs.ErrPerm, fd)
	}
	n, err := m.ReadAt(t.Port, t.Proc.Ten, f.Ino, p, off)
	t.Stats.FileReadBytes += int64(n)
	return n, err
}

// WriteFileAt writes p at offset off (pwrite).
func (t *Task) WriteFileAt(fd int, p []byte, off int64) (int, error) {
	m, err := t.enterFS()
	if err != nil {
		return 0, err
	}
	f, err := t.fdFile(fd)
	if err != nil {
		return 0, err
	}
	if f.Flags&vfs.OWrite == 0 {
		return 0, fmt.Errorf("%w: fd %d not open for writing", vfs.ErrPerm, fd)
	}
	n, err := m.WriteAt(t.Port, t.Proc.Ten, f.Ino, p, off)
	t.Stats.FileWriteBytes += int64(n)
	return n, err
}

// ReadFile reads up to n bytes from the descriptor's current offset,
// advancing it (read).
func (t *Task) ReadFile(fd int, n int) ([]byte, error) {
	p := make([]byte, n)
	f, err := t.fdFile(fd)
	if err != nil {
		return nil, err
	}
	got, err := t.ReadFileAt(fd, p, f.Off)
	f.Off += int64(got)
	return p[:got], err
}

// WriteFile writes p at the descriptor's current offset (or at EOF with
// vfs.OAppend), advancing it (write).
func (t *Task) WriteFile(fd int, p []byte) (int, error) {
	f, err := t.fdFile(fd)
	if err != nil {
		return 0, err
	}
	off := f.Off
	if f.Flags&vfs.OAppend != 0 {
		f.Ino.LockAppend(t.Port)
		defer f.Ino.UnlockAppend()
		off = f.Ino.Size
	}
	n, err := t.WriteFileAt(fd, p, off)
	f.Off = off + int64(n)
	return n, err
}

// SeekFile sets the descriptor's offset (SEEK_SET).
func (t *Task) SeekFile(fd int, off int64) error {
	f, err := t.fdFile(fd)
	if err != nil {
		return err
	}
	if off < 0 {
		return vfs.ErrInvalid
	}
	f.Off = off
	return nil
}

// FileSize returns the file's current size (fstat).
func (t *Task) FileSize(fd int) (int64, error) {
	if _, err := t.enterFS(); err != nil {
		return 0, err
	}
	f, err := t.fdFile(fd)
	if err != nil {
		return 0, err
	}
	return f.Ino.Size, nil
}

// SyncFile flushes the file's dirty pages (fsync). In the popcorn regime
// this pushes dirty pages back to the inode's home kernel by message; the
// fused page cache has nothing to flush.
func (t *Task) SyncFile(fd int) error {
	m, err := t.enterFS()
	if err != nil {
		return err
	}
	f, err := t.fdFile(fd)
	if err != nil {
		return err
	}
	return m.Cache.Sync(t.Port, f.Ino)
}

// MmapFile maps length bytes of the descriptor's file at fileOff into the
// address space. Pages fault in through the page cache: under the fused
// regime both nodes map the same frames; under popcorn each node maps its
// replica and coherence runs the DSM protocol on access.
func (t *Task) MmapFile(fd int, length uint64, flags VMAFlags, fileOff int64) (pgtable.VirtAddr, error) {
	if _, err := t.enterFS(); err != nil {
		return 0, err
	}
	f, err := t.fdFile(fd)
	if err != nil {
		return 0, err
	}
	if f.Ino.Dir {
		return 0, vfs.ErrIsDir
	}
	if fileOff < 0 || fileOff&(mem.PageSize-1) != 0 {
		return 0, fmt.Errorf("%w: mmap file offset %#x not page-aligned", vfs.ErrInvalid, fileOff)
	}
	if flags&VMAWrite != 0 && f.Flags&vfs.OWrite == 0 {
		return 0, fmt.Errorf("%w: writable mmap of read-only fd %d", vfs.ErrPerm, fd)
	}
	if flags&VMARead != 0 && f.Flags&vfs.ORead == 0 {
		return 0, fmt.Errorf("%w: readable mmap of write-only fd %d", vfs.ErrPerm, fd)
	}
	return t.Proc.MmapFile(length, flags, f.Ino, fileOff)
}

// FileFaultIn resolves a fault on a file-backed VMA: the page comes from
// the page cache (the shared frame or a DSM replica, per regime) and is
// mapped writable only for write faults — so a later store to a read
// mapping traps and runs the coherence upgrade, in both regimes. The
// mapping is registered in the reverse map so cache invalidations can
// shoot it down.
func FileFaultIn(t *Task, v *VMA, va pgtable.VirtAddr, write bool) error {
	m, err := t.mount()
	if err != nil {
		return err
	}
	pva := va &^ (mem.PageSize - 1)
	idx := (int64(pva-v.Start) + v.FileOff) >> mem.PageShift
	inode := m.FS.ByIno(v.FileIno)
	if inode == nil {
		return fmt.Errorf("kernel: file-backed vma %v names dead inode %d", v, v.FileIno)
	}
	frame, err := m.Cache.Frame(t.Port, t.Proc.Ten, inode, idx, write)
	if err != nil {
		return err
	}
	meta := t.Proc.Meta(pva)
	meta.FileBacked = true
	t.Ctx.registerFileMap(v.FileIno, idx, t.Proc, t.Node, pva)
	if _, err := MapFrame(t.Ctx, t.Port, t.Proc, t.Node, pva, frame, write); err != nil {
		return err
	}
	t.Proc.FaultsHandled[t.Node]++
	return nil
}

// fileMapKey identifies one file page in the reverse map.
type fileMapKey struct{ ino, idx int64 }

// fileMapping is one task-visible mapping of a file page.
type fileMapping struct {
	proc *Process
	node mem.NodeID
	va   pgtable.VirtAddr
}

// registerFileMap records that proc maps file page (ino, idx) at va on
// node, deduplicating re-faults of the same mapping.
func (c *Context) registerFileMap(ino, idx int64, proc *Process, node mem.NodeID, va pgtable.VirtAddr) {
	if c.fileMaps == nil {
		c.fileMaps = make(map[fileMapKey][]fileMapping)
	}
	k := fileMapKey{ino, idx}
	for _, fm := range c.fileMaps[k] {
		if fm.proc == proc && fm.node == node && fm.va == va {
			return
		}
	}
	c.fileMaps[k] = append(c.fileMaps[k], fileMapping{proc, node, va})
}

// FileInvalidateHook implements vfs.InvalidateHook over the reverse map:
// before the page cache downgrades or discards node's copy of a file
// page, every task mapping of it on that node is write-protected (DSM
// E -> S) or unmapped (invalidate/unlink), with TLB shootdown. pt may be
// a remote-node port when this runs inside a DSM service routine.
func (c *Context) FileInvalidateHook(pt *hw.Port, ino, idx int64, node mem.NodeID, writeProtectOnly bool) {
	k := fileMapKey{ino, idx}
	if writeProtectOnly {
		for _, fm := range c.fileMaps[k] {
			if fm.node == node {
				WriteProtect(pt, fm.proc, node, fm.va)
			}
		}
		return
	}
	fms := c.fileMaps[k]
	if len(fms) == 0 {
		return
	}
	kept := fms[:0]
	for _, fm := range fms {
		if fm.node != node {
			kept = append(kept, fm)
			continue
		}
		UnmapFrame(pt, fm.proc, node, fm.va)
	}
	if len(kept) == 0 {
		delete(c.fileMaps, k)
	} else {
		c.fileMaps[k] = kept
	}
}

// dropFileMaps removes every reverse-map entry of an exiting process.
func (c *Context) dropFileMaps(proc *Process) {
	for k, fms := range c.fileMaps {
		kept := fms[:0]
		for _, fm := range fms {
			if fm.proc != proc {
				kept = append(kept, fm)
			}
		}
		if len(kept) == 0 {
			delete(c.fileMaps, k)
		} else {
			c.fileMaps[k] = kept
		}
	}
}
