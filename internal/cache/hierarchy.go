package cache

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lineAddr is a physical address divided by the line size.
type lineAddr uint64

func lineOf(a mem.PhysAddr) lineAddr { return lineAddr(a >> mem.LineShift) }

// way is one cache way: a tag plus replacement state.
type way struct {
	line  lineAddr
	valid bool
	dirty bool
	used  int64 // global LRU timestamp
}

// level is one set-associative cache level with true LRU replacement. The
// ways of all sets live in one contiguous array (set s occupies
// ways[s*assoc : (s+1)*assoc]), so a lookup is a shift, a mask and a short
// scan of adjacent memory — no per-set slice headers, no division.
//
// memo is a direct-mapped way hint: slot a&(memoSize-1) names the way the
// last set scan that found a line with those low bits returned, so a hit on
// any recently found line — not only the last one — is one load and one
// compare. A slot is a hint, never trusted: it points into ways, which is
// never reallocated; it is used only if the way is valid and holds the line,
// the scan's own test; and only a scan hit writes a way into it, while
// insert clears the filled line's slot, so a slot that passes the test names
// the way the scan would return even in an L2 that holds a line twice
// (DESIGN §6, "Way memo").
type level struct {
	ways  []way
	memo  [memoSize]*way
	assoc int
	mask  uint64
	// tick is the level's private LRU clock, bumped once per stamp. Victim
	// selection compares timestamps only within one level, so a per-level
	// clock decides every eviction exactly as one hierarchy-wide clock would,
	// and the hit-run fast path can hold it in a register.
	tick int64
}

func newLevel(c LevelConfig) *level {
	n := c.Sets()
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)", n, c.Size, c.Ways))
	}
	return &level{ways: make([]way, n*c.Ways), assoc: c.Ways, mask: uint64(n - 1)}
}

func (l *level) setOf(a lineAddr) []way {
	s := (uint64(a) & l.mask) * uint64(l.assoc)
	return l.ways[s : s+uint64(l.assoc)]
}

// memoSize is the number of way-memo slots per level.
const memoSize = 1024

// lookup returns the way holding a, or nil. The hot callers inline its two
// halves themselves: lookup with both is over the inlining budget.
func (l *level) lookup(a lineAddr) *way {
	if w := l.hit(a); w != nil {
		return w
	}
	return l.scan(a)
}

// hit returns the way a's memo slot names if it holds a, else nil.
func (l *level) hit(a lineAddr) *way {
	if w := l.memo[a&(memoSize-1)]; w.holds(a) {
		return w
	}
	return nil
}

// holds reports whether w is a valid way holding a: the set scan's test,
// which a memo slot must pass before it is used.
func (w *way) holds(a lineAddr) bool { return w != nil && w.valid && w.line == a }

// scan searches a's set, remembering a hit in a's memo slot.
func (l *level) scan(a lineAddr) *way {
	set := l.setOf(a)
	for i := range set {
		if set[i].valid && set[i].line == a {
			l.memo[a&(memoSize-1)] = &set[i]
			return &set[i]
		}
	}
	return nil
}

// insert fills a into the level, evicting the LRU way if needed. It returns
// the way now holding a (so callers can mark it dirty without a second set
// scan) plus the evicted line and whether an eviction of a valid (possibly
// dirty) line happened.
func (l *level) insert(a lineAddr) (filled *way, evicted lineAddr, wasValid, wasDirty bool) {
	if l == nil {
		return nil, 0, false, false
	}
	set := l.setOf(a)
	victim := l.victimIn(set)
	w := &set[victim]
	evicted, wasValid, wasDirty = w.line, w.valid, w.dirty
	l.tick++
	*w = way{line: a, valid: true, used: l.tick}
	// A slot last written for another line may name w, which now passes
	// for a; when a already has a lower-index copy (the no-L3 double fill)
	// that is not the way the scan returns.
	l.memo[a&(memoSize-1)] = nil
	return w, evicted, wasValid, wasDirty
}

// victimIn returns the index insert would evict from the given set: the
// first invalid way, else the least recently used.
func (l *level) victimIn(set []way) int {
	victim := 0
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	return victim
}

// stamp marks a way most recently used.
func (l *level) stamp(w *way) {
	l.tick++
	w.used = l.tick
}

// invalidate removes a from the level, returning whether it was present and
// whether it was dirty.
func (l *level) invalidate(a lineAddr) (present, dirty bool) {
	if l == nil {
		return false, false
	}
	set := l.setOf(a)
	for i := range set {
		if set[i].valid && set[i].line == a {
			present, dirty = true, set[i].dirty
			set[i] = way{}
			return present, dirty
		}
	}
	return false, false
}

// flushAll invalidates every line (used by tests and node reset).
func (l *level) flushAll() {
	if l == nil {
		return
	}
	for i := range l.ways {
		l.ways[i] = way{}
	}
}

// dirEntry tracks the MESI state of one line across the two nodes. It is
// stored by value inside the directory's radix leaves (dir.go), so it is
// kept small: 4 bytes instead of a heap object per line.
type dirEntry struct {
	holders [2]bool
	// owner is the node holding the line Exclusive or Modified, or -1 when
	// the line is Shared or uncached.
	owner    int8
	modified bool
}

// dirHint is a per-core one-entry cache of the directory cell of the core's
// most recently accessed line, so a repeat access skips the shard and radix
// walk. Cells never move, so the pointer needs no revalidation; Flush drops
// the hints with the cells.
type dirHint struct {
	ln lineAddr
	e  *dirEntry
}

// nodeCaches is one node's private hierarchy plus its counters.
type nodeCaches struct {
	l1i, l1d, l2 []*level // indexed by core
	l3           *level   // nil when the machine uses a shared L3
	stats        Stats
	// coreStats splits the private-cache counters by accessing core, the
	// evidence that a multi-core run actually exercised each core.
	coreStats []CoreStats
}

// dirShard indexes the directory table a line belongs to, derived from the
// owner of the memory region containing it: tables 0 and 1 hold lines of
// node-owned regions, table 2 holds lines of shared-pool regions and of
// addresses outside every region. The split is a radix base per region
// group: each table's root starts at the lowest line of its regions, so
// the sparse space between node memory and a high shared pool costs no
// root slots (one table based at line 0 measured +0.5 % host allocation on
// the cluster workload; DESIGN §6).
type dirShard int8

const (
	shardNode0 dirShard = 0
	shardNode1 dirShard = 1
	shardOther dirShard = 2
)

// shardBound is one entry of the precomputed region→shard table: lines at
// or above start (and below the next bound) belong to shard.
type shardBound struct {
	start lineAddr
	shard dirShard
}

// Hierarchy is the machine-wide memory system timing model.
type Hierarchy struct {
	cfg      Config
	layout   *mem.Layout
	nodes    [2]*nodeCaches
	sharedL3 *level
	// dirs is the coherence directory, split by the owner of the region a
	// line lives in (see dirShard). The split changes no simulated result:
	// a line's entry is always in exactly one table, found by shardOf.
	dirs   [3]dirTable
	bounds []shardBound
	// hints are the per-node, per-core last-line directory cell caches.
	hints [2][]dirHint

	// Tap, when set, observes every access before it is simulated. The
	// Figure 8 validation uses it to replay the identical reference stream
	// through the independent gem5-style model.
	Tap func(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int)

	// Tracer, when non-nil, receives coherence and memory-miss events
	// (snoop invalidations, snoop data forwards, accesses that reach
	// memory). The L1-hit fast path performs no tracer check at all; the
	// snoop and miss paths each perform one nil check.
	Tracer trace.Tracer
	// ctxCycle/ctxTid carry the accessing thread's clock and id into the
	// line-level simulation for event timestamps. Set via TraceContext by
	// the Port layer before Access; safe as plain fields because the sim
	// engine serializes all simulated execution on one token.
	ctxCycle int64
	ctxTid   int32
}

// NewHierarchy builds the cache model for the given configuration and
// physical layout.
func NewHierarchy(cfg Config, layout *mem.Layout) *Hierarchy {
	h := &Hierarchy{cfg: cfg, layout: layout, bounds: buildShardBounds(layout)}
	// Base each shard's radix root at the lowest line it holds.
	for i := len(h.bounds) - 1; i >= 0; i-- {
		h.dirs[h.bounds[i].shard].base = h.bounds[i].start
	}
	for n := 0; n < 2; n++ {
		nc := &nodeCaches{coreStats: make([]CoreStats, cfg.Nodes[n].Cores)}
		h.hints[n] = make([]dirHint, cfg.Nodes[n].Cores)
		for c := 0; c < cfg.Nodes[n].Cores; c++ {
			nc.l1i = append(nc.l1i, newLevel(cfg.Nodes[n].L1I))
			nc.l1d = append(nc.l1d, newLevel(cfg.Nodes[n].L1D))
			nc.l2 = append(nc.l2, newLevel(cfg.Nodes[n].L2))
		}
		if !cfg.SharedL3 {
			nc.l3 = newLevel(cfg.Nodes[n].L3)
		}
		h.nodes[n] = nc
	}
	if cfg.SharedL3 {
		h.sharedL3 = newLevel(cfg.Nodes[0].L3)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of node n's counters.
func (h *Hierarchy) Stats(n mem.NodeID) Stats { return h.nodes[n].stats }

// CoreStats returns a snapshot of the per-core private-cache counters of
// core c on node n.
func (h *Hierarchy) CoreStats(n mem.NodeID, c int) CoreStats { return h.nodes[n].coreStats[c] }

// ResetStats zeroes all counters without disturbing cache contents.
func (h *Hierarchy) ResetStats() {
	for _, nc := range h.nodes {
		nc.stats = Stats{}
		for i := range nc.coreStats {
			nc.coreStats[i] = CoreStats{}
		}
	}
}

// CheckMESI validates the MESI safety invariant (DESIGN.md §5, invariant
// 1) against the coherence directory: at most one node holds a line
// Modified/Exclusive, an M/E holder is the line's only holder (Shared
// never coexists with M/E elsewhere), and a Modified line always has an
// owner. It returns the first violation found, or nil. Tests and
// experiments may call it at any quiescent point; it reads only directory
// state and charges no simulated cycles.
func (h *Hierarchy) CheckMESI() error {
	var err error
	h.forEachEntry(func(ln lineAddr, e *dirEntry) {
		if err == nil {
			err = e.checkMESI(ln)
		}
	})
	return err
}

// checkMESI returns line ln's violation of the MESI invariant, or nil.
func (e *dirEntry) checkMESI(ln lineAddr) error {
	switch {
	case e.modified && e.owner == -1:
		return fmt.Errorf("cache: line %#x is Modified with no owner", ln)
	case e.owner != -1 && e.owner != 0 && e.owner != 1:
		return fmt.Errorf("cache: line %#x has invalid owner %d", ln, e.owner)
	case e.owner != -1 && !e.holders[e.owner]:
		return fmt.Errorf("cache: line %#x owned M/E by node %d which is not a holder", ln, e.owner)
	case e.owner != -1 && e.holders[1-e.owner]:
		return fmt.Errorf("cache: line %#x held M/E by node %d while node %d also holds it (S coexists with M/E)",
			ln, e.owner, 1-e.owner)
	case e.holders[0] && e.holders[1] && (e.owner != -1 || e.modified):
		return fmt.Errorf("cache: line %#x shared by both nodes but owner=%d modified=%v",
			ln, e.owner, e.modified)
	}
	return nil
}

// TraceContext records the accessing thread's current cycle and id so
// that events emitted from the next Access carry them. Callers only need
// to do this when a tracer is installed.
func (h *Hierarchy) TraceContext(cycle int64, tid int32) {
	h.ctxCycle = cycle
	h.ctxTid = tid
}

// buildShardBounds flattens the layout's region list into a sorted table of
// (start line, shard) boundaries covering the whole address space; gaps
// between regions map to shardOther.
func buildShardBounds(layout *mem.Layout) []shardBound {
	regions := append([]mem.Region(nil), layout.Regions...)
	sort.Slice(regions, func(i, j int) bool { return regions[i].Start < regions[j].Start })
	bounds := []shardBound{{start: 0, shard: shardOther}}
	for _, r := range regions {
		sh := shardOther
		if r.Owner == 0 || r.Owner == 1 {
			sh = dirShard(r.Owner)
		}
		s, e := lineOf(r.Start), lineOf(r.End()+mem.LineSize-1)
		if last := &bounds[len(bounds)-1]; last.start == s {
			last.shard = sh
		} else {
			bounds = append(bounds, shardBound{start: s, shard: sh})
		}
		bounds = append(bounds, shardBound{start: e, shard: shardOther})
	}
	return bounds
}

// shardOf returns the directory shard holding line a.
func (h *Hierarchy) shardOf(a lineAddr) *dirTable {
	return &h.dirs[h.shardIndexOf(a)]
}

// entry returns the directory cell of a line.
func (h *Hierarchy) entry(a lineAddr) *dirEntry {
	return h.shardOf(a).cell(a)
}

// entryFor is entry with the accessing core's last-line hint.
func (h *Hierarchy) entryFor(node, core int, a lineAddr) *dirEntry {
	ht := &h.hints[node][core]
	if ht.e == nil || ht.ln != a {
		*ht = dirHint{ln: a, e: h.entry(a)}
	}
	return ht.e
}

// Access simulates one memory access of size bytes at addr by (node, core)
// and returns the total latency in cycles. Accesses spanning multiple lines
// are charged per line, like the QEMU plugin does.
func (h *Hierarchy) Access(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int) sim.Cycles {
	if size <= 0 {
		size = 1
	}
	if h.Tap != nil {
		h.Tap(node, core, kind, addr, size)
	}
	first := lineOf(addr)
	last := lineOf(addr + mem.PhysAddr(size-1))
	if first == last {
		// The overwhelmingly common case: the access fits one line.
		return h.accessLine(int(node), core, kind, first)
	}
	var total sim.Cycles
	for ln := first; ln <= last; ln++ {
		total += h.accessLine(int(node), core, kind, ln)
	}
	return total
}

// accessLine performs the per-line simulation: coherence, lookup, fill.
func (h *Hierarchy) accessLine(node, core int, kind Kind, ln lineAddr) sim.Cycles {
	nc := h.nodes[node]
	st := &nc.stats
	lat := h.cfg.Nodes[node].Lat
	other := 1 - node
	isWrite := kind == Write

	l1 := nc.l1d[core]
	cs := &nc.coreStats[core]
	if kind == Ifetch {
		l1 = nc.l1i[core]
		st.L1IAccesses++
		cs.L1IAccesses++
	} else {
		st.L1DAccesses++
		cs.L1DAccesses++
		st.MemAccesses++
	}

	if !isWrite {
		// Read L1-hit fast path: a line cached here cannot have a remote
		// M/E owner (a remote write would have snoop-invalidated it; a
		// remote read of an owned line demotes the owner), so the
		// directory transaction below would neither charge cycles nor
		// change state. Skipping the directory probe entirely is therefore
		// invisible to the timing model; the inclusion invariant
		// guarantees the entry exists and records this node as a holder.
		w := l1.hit(ln)
		if w == nil {
			w = l1.scan(ln)
		}
		if w != nil {
			l1.stamp(w)
			if kind == Ifetch {
				st.L1IHits++
				cs.L1IHits++
			} else {
				st.L1DHits++
				cs.L1DHits++
			}
			st.CacheHitLatency += lat.L1
			st.TotalLatency += lat.L1
			return lat.L1
		}
	}

	var cost sim.Cycles

	// Coherence actions against the other node (and other cores via
	// inclusion-maintained invalidation). held is read before this access
	// marks the node a holder: when it is false no private level of the
	// node holds the line (DESIGN §6, "Directory-first misses"), so the
	// lookups below that are guaranteed to miss are skipped.
	e := h.entryFor(node, core, ln)
	held := e.holders[node]
	if isWrite {
		if e.holders[other] {
			// CXL Snoop Invalidate: the other node must drop its copy.
			h.invalidateNode(other, ln)
			e.holders[other] = false
			cost += h.cfg.CrossNode.Invalidate
			st.SnoopInvalidations++
			h.nodes[other].stats.BackInvalidations++
			st.CoherenceLatency += h.cfg.CrossNode.Invalidate
			if tr := h.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindSnoopInvalidate,
					Node: int8(node), Core: int16(core), Tid: h.ctxTid,
					PA: uint64(ln) * mem.LineSize, Cost: int64(h.cfg.CrossNode.Invalidate)})
			}
		}
		e.holders[node] = true
		e.owner = int8(node)
		e.modified = true
	} else {
		if e.holders[other] && int(e.owner) == other {
			// CXL Snoop Data: M/E at the other node; forward data, both S.
			cost += h.cfg.CrossNode.Data
			st.SnoopDataForwards++
			st.CoherenceLatency += h.cfg.CrossNode.Data
			e.owner = -1
			e.modified = false
			if tr := h.Tracer; tr != nil {
				tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindSnoopData,
					Node: int8(node), Core: int16(core), Tid: h.ctxTid,
					PA: uint64(ln) * mem.LineSize, Cost: int64(h.cfg.CrossNode.Data)})
			}
		}
		wasCached := e.holders[0] || e.holders[1]
		e.holders[node] = true
		if !wasCached {
			e.owner = int8(node) // Exclusive
		} else if int(e.owner) != node {
			e.owner = -1 // Shared
		}
	}

	// Level lookups. Reads already probed (and missed) L1 above. A lookup
	// changes nothing on a miss, so skipping one that must miss is exact.
	l3 := nc.l3
	if h.cfg.SharedL3 {
		l3 = h.sharedL3
	}
	if isWrite && held {
		w := l1.hit(ln)
		if w == nil {
			w = l1.scan(ln)
		}
		if w != nil {
			l1.stamp(w)
			w.dirty = true
			st.L1DHits++
			cs.L1DHits++
			cost += lat.L1
			st.CacheHitLatency += lat.L1
			st.TotalLatency += cost
			return cost
		}
	}
	cost += lat.L1

	st.L2Accesses++
	l2 := nc.l2[core]
	var w2 *way
	// Without an L3 the L2 is the last level, and its double fill (fillL3
	// and fillLevel both insert) can leave a copy the directory no longer
	// lists; that L2 is always searched.
	if l2 != nil && (held || l3 == nil) {
		if w2 = l2.hit(ln); w2 == nil {
			w2 = l2.scan(ln)
		}
	}
	if w := w2; w != nil {
		l2.stamp(w)
		if isWrite {
			w.dirty = true
		}
		st.L2Hits++
		cost += lat.L2
		st.CacheHitLatency += lat.L2
		h.fillLevel(l1, ln, isWrite)
		st.TotalLatency += cost
		return cost
	}
	cost += lat.L2

	if l3 != nil {
		st.L3Accesses++
		// The shared L3 holds lines the other node filled.
		var w3 *way
		if held || h.cfg.SharedL3 {
			if w3 = l3.hit(ln); w3 == nil {
				w3 = l3.scan(ln)
			}
		}
		if w := w3; w != nil {
			l3.stamp(w)
			if isWrite {
				w.dirty = true
			}
			st.L3Hits++
			cost += lat.L3
			st.CacheHitLatency += lat.L3
			h.fillLevel(l2, ln, isWrite)
			h.fillLevel(l1, ln, isWrite)
			st.TotalLatency += cost
			return cost
		}
		cost += lat.L3
	}

	// Memory access. One region lookup gives the locality (as
	// Layout.Classify: FullyShared is all local, unmapped is remote) and
	// whether a remote hit lands in the shared pool.
	pa := mem.PhysAddr(ln) * mem.LineSize
	r := h.layout.RegionAt(pa)
	var memLat sim.Cycles
	remote := int64(0)
	if h.layout.Model == mem.FullyShared || r != nil && r.Owner == mem.NodeID(node) {
		st.LocalMemHits++
		memLat = lat.Mem
		st.LocalMemLatency += lat.Mem
	} else {
		remote = 1
		st.RemoteMemHits++
		memLat = lat.RemoteMem
		st.RemoteMemLatency += lat.RemoteMem
		if r != nil && r.Owner == mem.NodeNone {
			st.RemoteSharedHits++
		}
	}
	cost += memLat
	if tr := h.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindMemAccess,
			Node: int8(node), Core: int16(core), Tid: h.ctxTid,
			PA: uint64(pa), Arg: remote, Cost: int64(memLat)})
	}

	// Fill the whole hierarchy (inclusive).
	h.fillL3(node, core, l3, ln, isWrite)
	h.fillLevel(l2, ln, isWrite)
	h.fillLevel(l1, ln, isWrite)
	st.TotalLatency += cost
	return cost
}

// IfetchHits charges up to limit consecutive instruction fetches by (node,
// core) of the lines at addr, addr+LineSize, … and returns how many it
// charged. Each one is exactly Access(node, core, Ifetch, line, LineSize)
// taking the L1I-hit path — the way is stamped with the level's next LRU
// tick, the node's and core's L1I access and hit counters and the hit
// latencies grow by one fetch — but the counters are added once for the
// whole run and no clock is advanced: the caller owes n·Lat.L1 cycles.
//
// The run stops before the first line that is not resident in the L1I (that
// fetch needs the full Access path: fill, directory, events) and charges
// nothing while a Tap is installed, since a Tap must observe every access.
// It never wraps: a caller walking a window bounds limit by the lines left
// before the window's end.
func (h *Hierarchy) IfetchHits(node mem.NodeID, core int, addr mem.PhysAddr, limit int64) int {
	if h.Tap != nil {
		return 0
	}
	nc := h.nodes[node]
	l1 := nc.l1i[core]
	if l1 == nil {
		return 0
	}
	first := lineOf(addr)
	hits, tick := int64(0), l1.tick
	for ; hits < limit; hits++ {
		ln := first + lineAddr(hits)
		w := l1.memo[ln&(memoSize-1)]
		if !w.holds(ln) { // hit(ln), without its nil result to test again
			if w = l1.scan(ln); w == nil {
				break
			}
		}
		tick++
		w.used = tick // l1.stamp(w), with the tick held in a register
	}
	l1.tick = tick
	cycles := sim.Cycles(hits) * h.cfg.Nodes[node].Lat.L1
	st, cs := &nc.stats, &nc.coreStats[core]
	st.L1IAccesses += hits
	cs.L1IAccesses += hits
	st.L1IHits += hits
	cs.L1IHits += hits
	st.CacheHitLatency += cycles
	st.TotalLatency += cycles
	return int(hits)
}

// fillLevel inserts a line into an inner level, discarding clean evictions
// (the line stays in the outer levels by inclusion).
func (h *Hierarchy) fillLevel(l *level, ln lineAddr, dirty bool) {
	if l == nil {
		return
	}
	w, _, _, _ := l.insert(ln)
	if dirty {
		w.dirty = true
	}
}

// fillL3 inserts into the last level, maintaining inclusion: an evicted
// valid line is back-invalidated out of the inner levels and, since the node
// then holds no copy, cleared from the coherence directory.
func (h *Hierarchy) fillL3(node, core int, l3 *level, ln lineAddr, dirty bool) {
	st := &h.nodes[node].stats
	if l3 == nil {
		// Small configs without an L3 enforce inclusion at L2 instead.
		w, evicted, wasValid, wasDirty := h.nodes[node].l2[core].insert(ln)
		if wasValid {
			h.onLastLevelEvict(node, evicted, wasDirty)
		}
		if dirty {
			// The back-invalidation above targets only the evicted line,
			// never ln, so w still holds the line just filled.
			w.dirty = true
		}
		return
	}
	w, evicted, wasValid, wasDirty := l3.insert(ln)
	if dirty {
		w.dirty = true
	}
	if !wasValid {
		return
	}
	st.EvictionsL3++
	if h.cfg.SharedL3 {
		// The shared L3 backs both nodes; evicting drops the line everywhere.
		for n := 0; n < 2; n++ {
			h.onLastLevelEvict(n, evicted, wasDirty)
		}
		return
	}
	h.onLastLevelEvict(node, evicted, wasDirty)
}

// onLastLevelEvict back-invalidates inner levels and updates the directory
// after a line fully leaves node's hierarchy.
func (h *Hierarchy) onLastLevelEvict(node int, ln lineAddr, dirty bool) {
	nc := h.nodes[node]
	for c := range nc.l2 {
		if p, d := nc.l2[c].invalidate(ln); p && d {
			dirty = true
		}
		if p, d := nc.l1d[c].invalidate(ln); p && d {
			dirty = true
		}
		nc.l1i[c].invalidate(ln)
	}
	e := h.entry(ln)
	e.holders[node] = false
	if int(e.owner) == node {
		e.owner = -1
		e.modified = false
	}
	if dirty {
		pa := mem.PhysAddr(ln) * mem.LineSize
		if h.layout.Classify(mem.NodeID(node), pa) == mem.Remote {
			nc.stats.WritebacksToRemote++
		}
	}
	if !e.holders[0] && !e.holders[1] {
		*e = uncached // absent and uncached are one state (dir.go)
	}
}

// invalidateNode removes a line from every level of a node's hierarchy
// (the receiving side of a Snoop Invalidate).
func (h *Hierarchy) invalidateNode(node int, ln lineAddr) {
	nc := h.nodes[node]
	for c := range nc.l2 {
		nc.l1i[c].invalidate(ln)
		nc.l1d[c].invalidate(ln)
		nc.l2[c].invalidate(ln)
	}
	if nc.l3 != nil {
		nc.l3.invalidate(ln)
	}
	// With a shared L3 the line stays resident for the writer; only the
	// other node's private levels are flushed, which the loop above did.
}

// HoldsLine reports whether node currently caches the line containing addr
// according to the coherence directory (used by invariant tests).
func (h *Hierarchy) HoldsLine(node mem.NodeID, addr mem.PhysAddr) bool {
	ln := lineOf(addr)
	e := h.shardOf(ln).get(ln)
	return e != nil && e.holders[node]
}

// OwnerOf returns the node holding the line M/E, or -1 if shared/uncached.
func (h *Hierarchy) OwnerOf(addr mem.PhysAddr) int {
	ln := lineOf(addr)
	e := h.shardOf(ln).get(ln)
	if e == nil {
		return -1
	}
	return int(e.owner)
}

// forEachEntry visits every live directory entry across all shards.
func (h *Hierarchy) forEachEntry(f func(lineAddr, *dirEntry)) {
	for i := range h.dirs {
		h.dirs[i].forEach(f)
	}
}

// Flush empties every cache in the machine (contents only; stats remain).
func (h *Hierarchy) Flush() {
	for _, nc := range h.nodes {
		for c := range nc.l2 {
			nc.l1i[c].flushAll()
			nc.l1d[c].flushAll()
			nc.l2[c].flushAll()
		}
		if nc.l3 != nil {
			nc.l3.flushAll()
		}
	}
	if h.sharedL3 != nil {
		h.sharedL3.flushAll()
	}
	for i := range h.dirs {
		h.dirs[i].reset()
	}
	for n := range h.hints {
		clear(h.hints[n])
	}
}
