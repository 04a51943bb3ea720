package vfs

import (
	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/trace"
)

// pagePool is the fused cache's CXL shared-pool frame allocator: a bump
// pointer with a free list over the region the machine builder carved out
// of the shared pool (after the messaging area). It is deliberately tiny —
// the tiering decision (CXL first, DDR fallback) is the interesting part.
type pagePool struct {
	next mem.PhysAddr
	end  mem.PhysAddr
	free []mem.PhysAddr
}

func newPagePool(base mem.PhysAddr, size uint64) *pagePool {
	if size == 0 {
		return nil
	}
	return &pagePool{next: base, end: base + mem.PhysAddr(size)}
}

func (p *pagePool) alloc() (mem.PhysAddr, bool) {
	if n := len(p.free); n > 0 {
		pa := p.free[n-1]
		p.free = p.free[:n-1]
		return pa, true
	}
	if p.next+mem.PageSize <= p.end {
		pa := p.next
		p.next += mem.PageSize
		return pa, true
	}
	return 0, false
}

func (p *pagePool) release(pa mem.PhysAddr) { p.free = append(p.free, pa) }

// FusedCache is the Stramash-regime page cache: one shared set of frames
// that both kernels address directly. A page faults in exactly once,
// preferentially into the CXL shared pool; after that every node's access
// is a hit, and cross-node traffic is carried by the hardware coherence
// protocol (CXL snoops), never by kernel messages.
type FusedCache struct {
	frames map[pageKey]mem.PhysAddr
	// fromPool records pool-tier frames; others carry their DDR owner so
	// Drop can return them to the right buddy allocator.
	fromPool map[pageKey]bool
	owner    map[pageKey]mem.NodeID
	// chargedTo records which tenant's CacheFrames budget each resident
	// frame was charged against, so Drop can return the charge.
	chargedTo map[pageKey]*cap.Tenant
	// perIno keeps each inode's page indexes in insertion order (which is
	// simulation-deterministic), so Drop never iterates a Go map.
	perIno map[int64][]int64

	pool      *pagePool
	local     LocalAlloc
	freeLocal LocalFree
	locks     pageLocks
	stats     *Stats
	tracer    trace.Tracer
	hook      InvalidateHook
}

func newFusedCache(cfg Config, stats *Stats) *FusedCache {
	return &FusedCache{
		frames:    make(map[pageKey]mem.PhysAddr),
		fromPool:  make(map[pageKey]bool),
		owner:     make(map[pageKey]mem.NodeID),
		chargedTo: make(map[pageKey]*cap.Tenant),
		perIno:    make(map[int64][]int64),
		pool:      newPagePool(cfg.PoolBase, cfg.PoolSize),
		local:     cfg.Local,
		freeLocal: cfg.FreeLocal,
		locks:     newPageLocks(),
		stats:     stats,
		tracer:    cfg.Tracer,
	}
}

// SetInvalidateHook implements PageCache.
func (c *FusedCache) SetInvalidateHook(h InvalidateHook) { c.hook = h }

// Frame implements PageCache: any node's hit returns the one shared frame.
func (c *FusedCache) Frame(pt *hw.Port, ten *cap.Tenant, ino *Inode, idx int64, write bool) (mem.PhysAddr, error) {
	k := pageKey{ino.Ino, idx}
	pt.T.Advance(lookupCost)
	c.locks.lock(pt, k)
	defer c.locks.unlock(k)
	if f, ok := c.frames[k]; ok {
		c.stats.Hits[pt.Node]++
		emitPC(c.tracer, pt, trace.KindPageCacheHit, pt.Node, ino.Ino, idx, f)
		return f, nil
	}
	c.stats.Misses[pt.Node]++
	// A miss allocates the page's only frame; it is charged to the faulting
	// tenant before any allocation so a refused charge leaves no residue.
	// Hits are free regardless of who faulted the page in — the fused pool
	// is one shared cache, and the budget bounds what a tenant can force
	// INTO it, which is exactly the noisy-neighbor lever.
	if err := ten.ChargeCache(1); err != nil {
		emitPC(c.tracer, pt, trace.KindQuotaHit, pt.Node, ino.Ino, idx, 0)
		return 0, err
	}
	var frame mem.PhysAddr
	if c.pool != nil {
		if pa, ok := c.pool.alloc(); ok {
			pt.T.Advance(allocCost)
			pt.ZeroPage(pa)
			c.fromPool[k] = true
			frame = pa
		}
	}
	if frame == 0 {
		pa, err := c.local(pt, pt.Node)
		if err != nil {
			ten.UnchargeCache(1)
			return 0, err
		}
		c.owner[k] = pt.Node
		frame = pa
	}
	if ten != nil {
		c.chargedTo[k] = ten
	}
	c.frames[k] = frame
	c.perIno[ino.Ino] = append(c.perIno[ino.Ino], idx)
	emitPC(c.tracer, pt, trace.KindPageCacheMiss, pt.Node, ino.Ino, idx, frame)
	return frame, nil
}

// Sync implements PageCache: shared memory is authoritative, so there is
// nothing to flush — the fused design's whole point. The call itself is
// still counted, so persistence workloads can prove their fsync policy
// ran under both regimes.
func (c *FusedCache) Sync(pt *hw.Port, ino *Inode) error {
	c.stats.Syncs[pt.Node]++
	return nil
}

// Drop implements PageCache: unmap every task mapping on both nodes and
// free the frames. No messages — the fused kernel writes the other node's
// page tables directly.
func (c *FusedCache) Drop(pt *hw.Port, ino *Inode) error {
	for _, idx := range c.perIno[ino.Ino] {
		k := pageKey{ino.Ino, idx}
		c.locks.lock(pt, k)
		frame, ok := c.frames[k]
		if !ok {
			c.locks.unlock(k)
			continue
		}
		if c.hook != nil {
			c.hook(pt, ino.Ino, idx, mem.NodeX86, false)
			c.hook(pt, ino.Ino, idx, mem.NodeArm, false)
		}
		if c.fromPool[k] {
			c.pool.release(frame)
			pt.T.Advance(allocCost)
			delete(c.fromPool, k)
		} else {
			if err := c.freeLocal(pt, c.owner[k], frame); err != nil {
				c.locks.unlock(k)
				return err
			}
			delete(c.owner, k)
		}
		if ten := c.chargedTo[k]; ten != nil {
			ten.UnchargeCache(1)
			delete(c.chargedTo, k)
		}
		delete(c.frames, k)
		c.stats.Invalidations[pt.Node]++
		emitPC(c.tracer, pt, trace.KindPageCacheInvalidate, pt.Node, ino.Ino, idx, frame)
		c.locks.unlock(k)
	}
	delete(c.perIno, ino.Ino)
	return nil
}
