package vfs

import (
	"fmt"
	"io"

	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/trace"
)

// LocalAlloc allocates one zeroed frame from node's kernel DDR allocator,
// charging pt. LocalFree returns such a frame.
type (
	LocalAlloc func(pt *hw.Port, node mem.NodeID) (mem.PhysAddr, error)
	LocalFree  func(pt *hw.Port, node mem.NodeID, pa mem.PhysAddr) error
)

// Config assembles a Mount. The machine builder fills it in: the kernels'
// allocators arrive as closures so vfs stays below internal/kernel in the
// import order.
type Config struct {
	// Regime must be RegimeFused or RegimePopcorn (the machine resolves
	// RegimeAuto from the OS personality before building the mount).
	Regime Regime
	// CtrlPage backs the charged dentry/inode structure probes.
	CtrlPage mem.PhysAddr
	// Local and FreeLocal reach the per-node kernel page allocators.
	Local     LocalAlloc
	FreeLocal LocalFree
	// PoolBase/PoolSize describe the CXL shared-pool tier for the fused
	// page cache; PoolSize 0 means the model has no shared pool and fused
	// frames fall back to the first toucher's DDR.
	PoolBase mem.PhysAddr
	PoolSize uint64
	// Msgr carries DSM coherence and namespace traffic in the popcorn
	// regime (required there, ignored by fused).
	Msgr *interconnect.Messenger
	// Home is the kernel that owns the authoritative namespace in the
	// popcorn regime (defaults to NodeX86, where the first kernel boots).
	Home mem.NodeID
	// Tracer receives page-cache events (nil disables tracing).
	Tracer trace.Tracer
}

// Mount is one mounted file system: the namespace plus its page cache.
type Mount struct {
	FS     *FS
	Cache  PageCache
	Regime Regime
	Home   mem.NodeID

	msgr   *interconnect.Messenger
	tracer trace.Tracer
	stats  *Stats
	// metaSeen marks inodes whose dentry/inode metadata a non-home node
	// has already replicated (popcorn regime), like the popcorn VMA
	// replication flags: the first lookup pays an RPC, later ones are
	// local.
	metaSeen [2]map[int64]bool
}

// NewMount builds the file system and the page cache for cfg's regime.
func NewMount(cfg Config) (*Mount, error) {
	if cfg.Local == nil || cfg.FreeLocal == nil {
		return nil, fmt.Errorf("vfs: config needs Local and FreeLocal allocators")
	}
	stats := &Stats{}
	m := &Mount{
		FS:     NewFS(cfg.CtrlPage),
		Regime: cfg.Regime,
		Home:   cfg.Home,
		msgr:   cfg.Msgr,
		tracer: cfg.Tracer,
		stats:  stats,
		metaSeen: [2]map[int64]bool{
			make(map[int64]bool), make(map[int64]bool),
		},
	}
	switch cfg.Regime {
	case RegimeFused:
		m.Cache = newFusedCache(cfg, stats)
	case RegimePopcorn:
		if cfg.Msgr == nil {
			return nil, fmt.Errorf("vfs: popcorn regime needs a messenger")
		}
		m.Cache = newPopcornCache(cfg, stats)
	default:
		return nil, fmt.Errorf("vfs: regime %v not resolved", cfg.Regime)
	}
	return m, nil
}

// Stats returns a snapshot of the page-cache counters.
func (m *Mount) Stats() Stats { return *m.stats }

// rpc runs one messenger round trip, accounting its cycles to the
// requesting node's messaging bucket.
func (m *Mount) rpc(pt *hw.Port, handler func(remote *hw.Port, req []byte) []byte, req []byte) []byte {
	start := pt.T.Now()
	resp := m.msgr.RPC(pt, handler, req)
	m.stats.MsgCycles[pt.Node] += pt.T.Now() - start
	return resp
}

// metaArrive replicates an inode's metadata to pt's node on first contact
// in the popcorn regime: one RPC to the home kernel, whose service routine
// walks the authoritative dentry/inode structures.
func (m *Mount) metaArrive(pt *hw.Port, ino *Inode) {
	if m.Regime != RegimePopcorn || pt.Node == m.Home {
		return
	}
	if m.metaSeen[pt.Node][ino.Ino] {
		return
	}
	m.metaSeen[pt.Node][ino.Ino] = true
	m.stats.MetaRPCs++
	m.rpc(pt, func(remote *hw.Port, req []byte) []byte {
		m.FS.inodeTouch(remote, ino.Ino, false)
		return make([]byte, 64)
	}, make([]byte, 64))
}

// Resolve walks path to an inode, paying the regime's metadata costs.
func (m *Mount) Resolve(pt *hw.Port, path string) (*Inode, error) {
	ino, err := m.FS.Walk(pt, path)
	if err != nil {
		return nil, err
	}
	m.metaArrive(pt, ino)
	return ino, nil
}

// Create makes a file (or directory) at path. In the popcorn regime a
// non-home kernel forwards the mutation to the home kernel's namespace
// service by RPC; the fused kernel mutates the shared structures directly.
func (m *Mount) Create(pt *hw.Port, path string, dir bool) (*Inode, error) {
	parent, name, err := m.FS.WalkParent(pt, path)
	if err != nil {
		return nil, err
	}
	if m.Regime == RegimePopcorn && pt.Node != m.Home {
		var ino *Inode
		var cerr error
		m.stats.MetaRPCs++
		m.rpc(pt, func(remote *hw.Port, req []byte) []byte {
			ino, cerr = m.FS.create(remote, parent, name, dir, pt.Node)
			return make([]byte, 64)
		}, make([]byte, 64+len(path)))
		if cerr != nil {
			return nil, cerr
		}
		m.metaSeen[pt.Node][ino.Ino] = true
		return ino, nil
	}
	return m.FS.create(pt, parent, name, dir, pt.Node)
}

// Unlink removes path and drops its cached pages (both regimes invalidate
// every cached copy; popcorn pays messages to reach the peer's cache).
func (m *Mount) Unlink(pt *hw.Port, path string) error {
	parent, name, err := m.FS.WalkParent(pt, path)
	if err != nil {
		return err
	}
	var ino *Inode
	if m.Regime == RegimePopcorn && pt.Node != m.Home {
		var uerr error
		m.stats.MetaRPCs++
		m.rpc(pt, func(remote *hw.Port, req []byte) []byte {
			ino, uerr = m.FS.unlink(remote, parent, name)
			return make([]byte, 64)
		}, make([]byte, 64+len(path)))
		if uerr != nil {
			return uerr
		}
	} else {
		ino, err = m.FS.unlink(pt, parent, name)
		if err != nil {
			return err
		}
	}
	if !ino.Dir {
		return m.Cache.Drop(pt, ino)
	}
	return nil
}

// Truncate drops contents beyond size (only full truncation to zero drops
// pages; partial truncation just moves the size).
func (m *Mount) Truncate(pt *hw.Port, ino *Inode, size int64) error {
	if ino.Dir {
		return ErrIsDir
	}
	if size < 0 {
		return ErrInvalid
	}
	if size == 0 && ino.Size > 0 {
		if err := m.Cache.Drop(pt, ino); err != nil {
			return err
		}
	}
	ino.Size = size
	m.FS.inodeTouch(pt, ino.Ino, true)
	return nil
}

// ReadAt copies up to len(p) bytes from ino at off through the page cache.
// It returns the bytes read; a read starting at or past EOF returns
// (0, io.EOF), and a read crossing EOF returns short without error. ten
// is the tenant page-cache misses are charged to (nil = root).
func (m *Mount) ReadAt(pt *hw.Port, ten *cap.Tenant, ino *Inode, p []byte, off int64) (int, error) {
	if ino.Dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	if off >= ino.Size {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > ino.Size {
		n = int(ino.Size - off)
	}
	done := 0
	for done < n {
		pos := off + int64(done)
		idx := pos >> mem.PageShift
		pageOff := int(pos & (mem.PageSize - 1))
		chunk := mem.PageSize - pageOff
		if chunk > n-done {
			chunk = n - done
		}
		frame, err := m.Cache.Frame(pt, ten, ino, idx, false)
		if err != nil {
			return done, err
		}
		pt.ReadInto(frame+mem.PhysAddr(pageOff), p[done:done+chunk])
		done += chunk
	}
	return n, nil
}

// WriteAt copies p into ino at off through the page cache, extending the
// file as needed. ten is the tenant page-cache misses are charged to.
func (m *Mount) WriteAt(pt *hw.Port, ten *cap.Tenant, ino *Inode, p []byte, off int64) (int, error) {
	if ino.Dir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	done := 0
	for done < len(p) {
		pos := off + int64(done)
		idx := pos >> mem.PageShift
		pageOff := int(pos & (mem.PageSize - 1))
		chunk := mem.PageSize - pageOff
		if chunk > len(p)-done {
			chunk = len(p) - done
		}
		frame, err := m.Cache.Frame(pt, ten, ino, idx, true)
		if err != nil {
			return done, err
		}
		pt.Write(frame+mem.PhysAddr(pageOff), p[done:done+chunk])
		done += chunk
	}
	if end := off + int64(len(p)); end > ino.Size {
		ino.Size = end
		m.FS.inodeTouch(pt, ino.Ino, true)
	}
	return len(p), nil
}
