package cache

import "repro/internal/mem"

// ParallelSafe reports whether Access(node, core, kind, addr, size) would
// touch only state private to node's clock domain — its own cache levels,
// its own stats, and its own directory shard — and would emit no
// observation events. The parallel engine's domain phase may then simulate
// the access concurrently with the other node; any access this probe
// rejects is routed through a CrossDomain park and re-executed under the
// global token.
//
// The probe is pure with respect to simulated results: it reads cache and
// directory state (updating only host-side way-memo/hint caches, which never
// influence timing) and charges no cycles. It is deliberately conservative;
// returning false is always correct, and tightening it further is the
// escape hatch if a workload ever diverges under the parallel engine.
func (h *Hierarchy) ParallelSafe(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int) bool {
	// Observers see every access in sequential order; a shared L3 makes every
	// fill a cross-node effect.
	if h.Tap != nil || h.Tracer != nil || h.cfg.SharedL3 {
		return false
	}
	if size <= 0 {
		size = 1
	}
	first := lineOf(addr)
	last := lineOf(addr + mem.PhysAddr(size-1))
	for ln := first; ln <= last; ln++ {
		if !h.lineParallelSafe(int(node), core, kind, ln) {
			return false
		}
	}
	return true
}

// lineParallelSafe is the per-line check behind ParallelSafe, mirroring the
// decision points of accessLine.
func (h *Hierarchy) lineParallelSafe(node, core int, kind Kind, ln lineAddr) bool {
	nc := h.nodes[node]
	isWrite := kind == Write
	l1 := nc.l1d[core]
	if kind == Ifetch {
		l1 = nc.l1i[core]
	}

	// Everything below requires the line to live in a region this node owns
	// (its own directory shard) with no copy cached at the other node. For
	// misses and writes that is a state-partition requirement: those paths
	// run a directory transaction on the line's shard and may snoop the
	// other node. For read L1 hits it is an ordering requirement: a hit on
	// a line the other node could plausibly be writing (a shared-region
	// mailbox, a line it also holds) must stay serialized against the
	// writer's invalidate, or a polling loop would observe hit latencies
	// past the simulated instant its copy died.
	if h.shardIndexOf(ln) != dirShard(node) {
		return false
	}
	if e := h.dirs[node].get(ln); e != nil && e.holders[1-node] {
		return false
	}

	w1 := l1.lookup(ln)
	if !isWrite && w1 != nil {
		// Read L1 hit: accessLine's fast path touches nothing but this way's
		// LRU stamp and node-local counters.
		return true
	}

	// Fills into inner levels discard evictions (inclusion keeps the line in
	// the outer levels), so only an access that misses the whole hierarchy
	// can evict from the last level — which back-invalidates and updates the
	// victim line's directory entry. That victim must be ours too.
	if isWrite && w1 != nil {
		return true
	}
	if l2 := nc.l2[core]; l2 != nil && l2.lookup(ln) != nil {
		return true
	}
	lastLevel := nc.l3
	if lastLevel != nil {
		if lastLevel.lookup(ln) != nil {
			return true
		}
	} else {
		lastLevel = nc.l2[core]
	}
	if lastLevel == nil {
		return false
	}
	set := lastLevel.setOf(ln)
	v := &set[lastLevel.victimIn(set)]
	if v.valid && h.shardIndexOf(v.line) != dirShard(node) {
		return false
	}
	return true
}

// shardIndexOf returns the shard index for a line (shardOf returns the
// table itself).
func (h *Hierarchy) shardIndexOf(a lineAddr) dirShard {
	b := h.bounds
	i := len(b) - 1
	for b[i].start > a {
		i--
	}
	return b[i].shard
}
