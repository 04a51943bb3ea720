package vfs

import (
	"encoding/binary"

	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/trace"
)

// cstate is a node's coherence state for one cached file page, the
// Popcorn DSM invalid/shared/exclusive protocol applied to the page cache.
type cstate uint8

const (
	csInvalid cstate = iota
	csShared
	csExclusive
)

// pcPage is one file page replicated across the two kernels' caches.
type pcPage struct {
	frames [2]mem.PhysAddr
	state  [2]cstate
	// dirty marks the exclusive owner's copy as modified since the last
	// writeback; a read-fetch by the other node or a Sync clears it.
	dirty bool
}

// popcorn cache wire ops (first byte of every message).
const (
	pcOpFetch      = 1 // read miss: send me the page, downgrade E -> S
	pcOpFetchSteal = 2 // write miss: send me the page, invalidate your copy
	pcOpInvalidate = 3 // write upgrade: drop your shared copy
	pcOpWriteback  = 4 // fsync: here is the dirty page, install at home
	pcOpDrop       = 5 // unlink: free all your replicas of this inode
)

// pcReq encodes a coherence request header (64 bytes, one ring slot's
// header worth, matching the popcorn kernel's message framing).
func pcReq(op byte, ino, idx int64, payload int) []byte {
	b := make([]byte, 64+payload)
	b[0] = op
	binary.LittleEndian.PutUint64(b[8:], uint64(ino))
	binary.LittleEndian.PutUint64(b[16:], uint64(idx))
	return b
}

// PopcornCache is the multiple-kernel baseline: each kernel caches file
// pages in its own DDR, and coherence travels as messages over the ring
// buffer + IPI doorbell interconnect (with the messenger's built-in
// ring-full retry). Every cross-node sharing event costs a full RPC round
// trip plus, for content moves, a page-sized payload.
type PopcornCache struct {
	pages  map[pageKey]*pcPage
	perIno map[int64][]int64
	// charged records, per node, the tenant whose CacheFrames budget each
	// local replica was charged against. A tenant whose access replicates a
	// page on both kernels pays for both replicas — the multiple-kernel
	// regime's memory amplification, surfaced in the budget.
	charged [2]map[pageKey]*cap.Tenant

	msgr      *interconnect.Messenger
	local     LocalAlloc
	freeLocal LocalFree
	locks     pageLocks
	stats     *Stats
	tracer    trace.Tracer
	hook      InvalidateHook
}

func newPopcornCache(cfg Config, stats *Stats) *PopcornCache {
	return &PopcornCache{
		pages:  make(map[pageKey]*pcPage),
		perIno: make(map[int64][]int64),
		charged: [2]map[pageKey]*cap.Tenant{
			make(map[pageKey]*cap.Tenant), make(map[pageKey]*cap.Tenant),
		},
		msgr:      cfg.Msgr,
		local:     cfg.Local,
		freeLocal: cfg.FreeLocal,
		locks:     newPageLocks(),
		stats:     stats,
		tracer:    cfg.Tracer,
	}
}

// SetInvalidateHook implements PageCache.
func (c *PopcornCache) SetInvalidateHook(h InvalidateHook) { c.hook = h }

// rpc runs one coherence round trip, billing its cycles to the requesting
// node's messaging bucket.
func (c *PopcornCache) rpc(pt *hw.Port, handler func(remote *hw.Port, req []byte) []byte, req []byte) {
	start := pt.T.Now()
	c.msgr.RPC(pt, handler, req)
	c.stats.MsgCycles[pt.Node] += pt.T.Now() - start
}

// Frame implements PageCache: the full DSM state machine. Each local
// replica a tenant's access allocates is charged against its CacheFrames
// budget (and returned when Drop frees the replica).
func (c *PopcornCache) Frame(pt *hw.Port, ten *cap.Tenant, ino *Inode, idx int64, write bool) (mem.PhysAddr, error) {
	n := pt.Node
	k := pageKey{ino.Ino, idx}
	pt.T.Advance(lookupCost)
	c.locks.lock(pt, k)
	defer c.locks.unlock(k)

	pg := c.pages[k]
	if pg == nil {
		// First touch anywhere: a local zeroed frame, exclusively owned.
		c.stats.Misses[n]++
		if err := ten.ChargeCache(1); err != nil {
			emitPC(c.tracer, pt, trace.KindQuotaHit, n, ino.Ino, idx, 0)
			return 0, err
		}
		frame, err := c.local(pt, n)
		if err != nil {
			ten.UnchargeCache(1)
			return 0, err
		}
		if ten != nil {
			c.charged[n][k] = ten
		}
		pg = &pcPage{dirty: write}
		pg.frames[n] = frame
		pg.state[n] = csExclusive
		c.pages[k] = pg
		c.perIno[ino.Ino] = append(c.perIno[ino.Ino], idx)
		emitPC(c.tracer, pt, trace.KindPageCacheMiss, n, ino.Ino, idx, frame)
		return frame, nil
	}

	if !write {
		if pg.state[n] != csInvalid {
			c.stats.Hits[n]++
			emitPC(c.tracer, pt, trace.KindPageCacheHit, n, ino.Ino, idx, pg.frames[n])
			return pg.frames[n], nil
		}
		c.stats.Misses[n]++
		if err := c.fetch(pt, ten, ino, idx, pg, false); err != nil {
			return 0, err
		}
		pg.state[n] = csShared
		emitPC(c.tracer, pt, trace.KindPageCacheMiss, n, ino.Ino, idx, pg.frames[n])
		return pg.frames[n], nil
	}

	switch pg.state[n] {
	case csExclusive:
		c.stats.Hits[n]++
		pg.dirty = true
		emitPC(c.tracer, pt, trace.KindPageCacheHit, n, ino.Ino, idx, pg.frames[n])
		return pg.frames[n], nil
	case csShared:
		// Write upgrade: invalidate the peer's shared copy by message.
		c.stats.Hits[n]++
		if p := other(n); pg.state[p] != csInvalid {
			c.invalidatePeer(pt, ino, idx, pg)
		}
		pg.state[n] = csExclusive
		pg.dirty = true
		emitPC(c.tracer, pt, trace.KindPageCacheHit, n, ino.Ino, idx, pg.frames[n])
		return pg.frames[n], nil
	default:
		// Write miss: fetch the content and steal exclusive ownership.
		c.stats.Misses[n]++
		if err := c.fetch(pt, ten, ino, idx, pg, true); err != nil {
			return 0, err
		}
		pg.state[n] = csExclusive
		pg.dirty = true
		emitPC(c.tracer, pt, trace.KindPageCacheMiss, n, ino.Ino, idx, pg.frames[n])
		return pg.frames[n], nil
	}
}

func other(n mem.NodeID) mem.NodeID { return mem.NodeID(1 - int(n)) }

// fetch pulls the page content from the peer's cache by RPC (2 messages +
// page payload) into a local frame. steal invalidates the peer's copy
// (write miss); otherwise an exclusive peer downgrades to shared, and if
// it was dirty the transfer doubles as the writeback.
func (c *PopcornCache) fetch(pt *hw.Port, ten *cap.Tenant, ino *Inode, idx int64, pg *pcPage, steal bool) error {
	n := pt.Node
	p := other(n)
	k := pageKey{ino.Ino, idx}
	if pg.frames[n] == 0 {
		if err := ten.ChargeCache(1); err != nil {
			emitPC(c.tracer, pt, trace.KindQuotaHit, n, ino.Ino, idx, 0)
			return err
		}
		frame, err := c.local(pt, n)
		if err != nil {
			ten.UnchargeCache(1)
			return err
		}
		if ten != nil {
			c.charged[n][k] = ten
		}
		pg.frames[n] = frame
	}
	if pg.state[p] == csInvalid {
		// No valid copy anywhere (the page was dropped while we slept on
		// the lock): the zeroed local frame is authoritative.
		return nil
	}
	op := byte(pcOpFetch)
	if steal {
		op = pcOpFetchSteal
	}
	c.rpc(pt, func(remote *hw.Port, req []byte) []byte {
		resp := c.msgr.ReplyBuf(64 + mem.PageSize)
		remote.ReadInto(pg.frames[p], resp[64:])
		if steal {
			if c.hook != nil {
				c.hook(remote, ino.Ino, idx, p, false)
			}
			pg.state[p] = csInvalid
			c.stats.Invalidations[p]++
			emitPC(c.tracer, remote, trace.KindPageCacheInvalidate, p, ino.Ino, idx, pg.frames[p])
		} else if pg.state[p] == csExclusive {
			if c.hook != nil {
				c.hook(remote, ino.Ino, idx, p, true)
			}
			pg.state[p] = csShared
			if pg.dirty {
				// The downgrade flushes the owner's dirty data: the copy
				// travelling in this response is the writeback.
				pg.dirty = false
				c.stats.Writebacks[p]++
				emitPC(c.tracer, remote, trace.KindPageCacheWriteback, p, ino.Ino, idx, pg.frames[p])
			}
		}
		return resp
	}, pcReq(op, ino.Ino, idx, 0))
	// The payload travelled through the charged message channel; install
	// it into the local replica (write side only, like DSM replication).
	pt.InstallPage(pg.frames[n], pg.frames[p])
	return nil
}

// invalidatePeer drops the peer's shared copy by message (write upgrade).
func (c *PopcornCache) invalidatePeer(pt *hw.Port, ino *Inode, idx int64, pg *pcPage) {
	p := other(pt.Node)
	c.rpc(pt, func(remote *hw.Port, req []byte) []byte {
		if c.hook != nil {
			c.hook(remote, ino.Ino, idx, p, false)
		}
		pg.state[p] = csInvalid
		c.stats.Invalidations[p]++
		emitPC(c.tracer, remote, trace.KindPageCacheInvalidate, p, ino.Ino, idx, pg.frames[p])
		return make([]byte, 64)
	}, pcReq(pcOpInvalidate, ino.Ino, idx, 0))
}

// Sync implements PageCache: push every dirty page the calling node owns
// exclusively back to the inode's home kernel (2 messages + page payload
// each). The local copy downgrades to shared, mirroring a writeback that
// leaves the page clean in both caches.
func (c *PopcornCache) Sync(pt *hw.Port, ino *Inode) error {
	n := pt.Node
	home := ino.Home
	c.stats.Syncs[n]++
	for _, idx := range c.perIno[ino.Ino] {
		k := pageKey{ino.Ino, idx}
		pg := c.pages[k]
		if pg == nil || !pg.dirty || pg.state[n] != csExclusive {
			continue
		}
		if home == n {
			// The authoritative kernel already holds the dirty data; a
			// local flush involves no messages.
			pg.dirty = false
			continue
		}
		c.locks.lock(pt, k)
		if !pg.dirty || pg.state[n] != csExclusive { // re-check under the lock
			c.locks.unlock(k)
			continue
		}
		var syncErr error
		c.rpc(pt, func(remote *hw.Port, req []byte) []byte {
			if pg.frames[home] == 0 {
				frame, err := c.local(remote, home)
				if err != nil {
					syncErr = err
					return make([]byte, 64)
				}
				pg.frames[home] = frame
			}
			remote.InstallPage(pg.frames[home], pg.frames[n])
			pg.state[home] = csShared
			return make([]byte, 64)
		}, pcReq(pcOpWriteback, ino.Ino, idx, mem.PageSize))
		if syncErr != nil {
			c.locks.unlock(k)
			return syncErr
		}
		if c.hook != nil {
			c.hook(pt, ino.Ino, idx, n, true)
		}
		pg.state[n] = csShared
		pg.dirty = false
		c.stats.Writebacks[n]++
		emitPC(c.tracer, pt, trace.KindPageCacheWriteback, n, ino.Ino, idx, pg.frames[n])
		c.locks.unlock(k)
	}
	return nil
}

// Drop implements PageCache: free the local replicas directly, and if the
// peer kernel holds any, tell it to free them with one RPC (unlink is a
// namespace broadcast in a multiple-kernel OS).
func (c *PopcornCache) Drop(pt *hw.Port, ino *Inode) error {
	n := pt.Node
	p := other(n)
	type peerPage struct {
		idx   int64
		pg    *pcPage
		frame mem.PhysAddr
	}
	var peerHeld []peerPage
	for _, idx := range c.perIno[ino.Ino] {
		k := pageKey{ino.Ino, idx}
		pg := c.pages[k]
		if pg == nil {
			continue
		}
		c.locks.lock(pt, k)
		if pg.frames[n] != 0 {
			if c.hook != nil {
				c.hook(pt, ino.Ino, idx, n, false)
			}
			frame := pg.frames[n]
			if err := c.freeLocal(pt, n, frame); err != nil {
				c.locks.unlock(k)
				return err
			}
			if ten := c.charged[n][k]; ten != nil {
				ten.UnchargeCache(1)
				delete(c.charged[n], k)
			}
			pg.frames[n] = 0
			pg.state[n] = csInvalid
			c.stats.Invalidations[n]++
			emitPC(c.tracer, pt, trace.KindPageCacheInvalidate, n, ino.Ino, idx, frame)
		}
		if pg.frames[p] != 0 {
			peerHeld = append(peerHeld, peerPage{idx, pg, pg.frames[p]})
		} else {
			delete(c.pages, k)
		}
		c.locks.unlock(k)
	}
	if len(peerHeld) > 0 {
		c.rpc(pt, func(remote *hw.Port, req []byte) []byte {
			for _, ph := range peerHeld {
				if c.hook != nil {
					c.hook(remote, ino.Ino, ph.idx, p, false)
				}
				if err := c.freeLocal(remote, p, ph.frame); err != nil {
					continue
				}
				if ten := c.charged[p][pageKey{ino.Ino, ph.idx}]; ten != nil {
					ten.UnchargeCache(1)
					delete(c.charged[p], pageKey{ino.Ino, ph.idx})
				}
				ph.pg.frames[p] = 0
				ph.pg.state[p] = csInvalid
				c.stats.Invalidations[p]++
				emitPC(c.tracer, remote, trace.KindPageCacheInvalidate, p, ino.Ino, ph.idx, ph.frame)
				delete(c.pages, pageKey{ino.Ino, ph.idx})
			}
			return make([]byte, 64)
		}, pcReq(pcOpDrop, ino.Ino, 0, 0))
	}
	delete(c.perIno, ino.Ino)
	return nil
}
