package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lineAddr is a physical address divided by the line size.
type lineAddr uint64

func lineOf(a mem.PhysAddr) lineAddr { return lineAddr(a >> mem.LineShift) }

// way is one cache way packed into a word, line<<2 | dirty<<1 | valid. An
// invalid way is zero. A 16-way set is 128 bytes, two host cache lines.
type way uint64

const (
	wayValid way = 1 << iota
	wayDirty
)

func (w way) valid() bool    { return w&wayValid != 0 }
func (w way) dirty() bool    { return w&wayDirty != 0 }
func (w way) line() lineAddr { return lineAddr(w >> 2) }

// holds reports whether w is a valid way holding a: the set scan's test,
// which a memo slot must pass before it is used.
func (w way) holds(a lineAddr) bool { return w&^wayDirty == way(a)<<2|wayValid }

// level is one set-associative cache level with true LRU replacement. The
// ways of all sets live in one contiguous array (set s occupies
// ways[s<<shift : (s+1)<<shift]), so finding a line is a shift, a mask and a
// short scan of adjacent memory — no per-set slice headers, no division.
//
// order holds one recency word per set: nibble k is the index within the
// set of the way with recency rank k, rank 0 the most recently used. The
// low 4·ways bits are always a permutation of the set's way indices, so
// choosing a victim reads the set's tags and one word, never per-way
// replacement state (DESIGN §6, "Recency words").
//
// memo is a direct-mapped way hint: slot a&(memoSize-1) holds one plus the
// index in ways of the way the last set scan that found a line with those
// low bits returned (zero is empty), so a hit on any recently found line —
// not only the last one — is one load and one compare. A slot is a hint,
// never trusted: it is used only if the way holds the line, the scan's own
// test; and only a scan hit writes a slot, while insert clears the filled
// line's slot, so a slot that passes the test names the way the scan would
// return even in an L2 that holds a line twice (DESIGN §6, "Way memo").
type level struct {
	ways  []way
	order []uint64
	// watch is the armed Watch of a parked spin loop whose L1D this is.
	watch *Watch
	memo  [memoSize]uint32
	shift uint   // log2 of the ways per set
	last  uint64 // ways per set - 1
	mask  uint64 // set count - 1
	ranks uint64 // the low 4·ways bits: a recency word's used nibbles
}

// memoSize is the number of way-memo slots per level.
const memoSize = 1024

// nibbles has a one in every nibble of a recency word.
const nibbles = 0x1111111111111111

func newLevel(c LevelConfig) *level {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	n := c.Sets()
	if n == 0 {
		return nil
	}
	l := &level{
		ways:  make([]way, n*c.Ways),
		order: make([]uint64, n),
		shift: uint(bits.TrailingZeros(uint(c.Ways))),
		last:  uint64(c.Ways - 1),
		mask:  uint64(n - 1),
		ranks: 1<<(4*uint(c.Ways)) - 1,
	}
	for s := range l.order {
		l.order[s] = 0xFEDCBA9876543210 & l.ranks // rank k is way k
	}
	return l
}

// setOf returns a's set.
func (l *level) setOf(a lineAddr) []way {
	b := (uint64(a) & l.mask) << l.shift
	return l.ways[b : b+1<<l.shift]
}

// hit returns the index of the way a's memo slot names if it holds a, else
// -1.
func (l *level) hit(a lineAddr) int {
	if i := uint(l.memo[a&(memoSize-1)]) - 1; i < uint(len(l.ways)) && l.ways[i].holds(a) {
		return int(i)
	}
	return -1
}

// scan searches a's set and returns the index of the lowest way holding a,
// or -1, remembering a hit in a's memo slot.
func (l *level) scan(a lineAddr) int {
	b := int((uint64(a) & l.mask) << l.shift)
	for i, w := range l.ways[b : b+1<<l.shift] {
		if w.holds(a) {
			l.memo[a&(memoSize-1)] = uint32(b+i) + 1
			return b + i
		}
	}
	return -1
}

// insert fills a into the level, evicting the LRU way if needed. It returns
// the index of the way now holding a (so callers can mark it dirty without
// a second set scan) plus the evicted line and whether an eviction of a
// valid (possibly dirty) line happened. The victim is the set's lowest
// invalid way, else the way of the top rank; the fill then holds rank 0,
// which in a full set is a rotation of the word.
func (l *level) insert(a lineAddr) (filled int, evicted lineAddr, wasValid, wasDirty bool) {
	s := uint64(a) & l.mask
	b := int(s << l.shift)
	set := l.ways[b : b+1<<l.shift]
	v := 0
	for v < len(set) && set[v].valid() {
		v++
	}
	if v == len(set) {
		o := l.order[s]
		v = int(o>>(4*(len(set)-1))) & 0xF
		l.order[s] = (o<<4 | uint64(v)) & l.ranks
	} else {
		l.stamp(b + v)
	}
	w := set[v]
	set[v] = way(a)<<2 | wayValid
	// A slot last written for another line may name way v, which now
	// passes for a; when a already has a lower-index copy (the no-L3
	// double fill) that is not the way the scan returns.
	l.memo[a&(memoSize-1)] = 0
	return b + v, w.line(), w.valid(), w.dirty()
}

// stamp makes way i (an index into ways) its set's most recently used: the
// ways ranked before it move back one rank and it takes rank 0. It does not
// branch on i's rank. Rank r is the first nibble of the word equal to i's
// index k in the set, found with the has-zero-nibble test on the word xor
// k in every nibble; m covers nibbles 0..r, which take the word shifted up
// one nibble with k shifted in.
func (l *level) stamp(i int) {
	// shift&63 spares the compiler's check for a shift past 63.
	s, k := uint(i)>>(l.shift&63), uint64(i)&l.last
	o := l.order[s]
	x := o ^ k*nibbles
	t := (x - nibbles) &^ x & (nibbles << 3)
	m := t ^ (t - 1)
	l.order[s] = o ^ (o^(o<<4|k))&m
}

// invalidate removes a from the level, returning whether it was present and
// whether it was dirty. The way keeps its stale rank: an invalid way is
// chosen by the invalid-first rule, never by rank.
func (l *level) invalidate(a lineAddr) (present, dirty bool) {
	if l == nil {
		return false, false
	}
	set := l.setOf(a)
	for i, w := range set {
		if w.holds(a) {
			set[i] = 0
			return true, w.dirty()
		}
	}
	return false, false
}

// flushAll invalidates every line (used by tests and node reset).
func (l *level) flushAll() {
	if l != nil {
		clear(l.ways)
	}
}

// dirEntry tracks the MESI state of one line across the two nodes. It is
// stored by value inside the directory's radix leaves (dir.go), so it is
// kept small: 4 bytes instead of a heap object per line.
type dirEntry struct {
	holders [2]bool
	// owner is the node holding the line Exclusive or Modified, or -1 when
	// the line is Shared or uncached.
	owner int8
	flags dirFlags
}

// dirFlags are a directory entry's bits besides holders and owner.
type dirFlags uint8

const (
	// dirModified: the owner's copy is Modified.
	dirModified dirFlags = 1 << iota
	// dirWatched: an armed Watch polls the line.
	dirWatched
)

func (e *dirEntry) modified() bool { return e.flags&dirModified != 0 }

func (e *dirEntry) setModified(m bool) {
	if m {
		e.flags |= dirModified
	} else {
		e.flags &^= dirModified
	}
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
	// watches are the armed Watches, in arming order.
	watches []*Watch

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

// Stats returns a snapshot of node n's counters. Reading them fires every
// armed Watch first, so the snapshot holds the parked loops' probes too.
func (h *Hierarchy) Stats(n mem.NodeID) Stats {
	h.fireAll()
	return h.nodes[n].stats
}

// CoreStats returns a snapshot of the per-core private-cache counters of
// core c on node n (armed Watches fire first, as in Stats).
func (h *Hierarchy) CoreStats(n mem.NodeID, c int) CoreStats {
	h.fireAll()
	return h.nodes[n].coreStats[c]
}

// ResetStats zeroes all counters without disturbing cache contents (armed
// Watches fire first, so no parked probe is counted after the reset).
func (h *Hierarchy) ResetStats() {
	h.fireAll()
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
	case e.modified() && e.owner == -1:
		return fmt.Errorf("cache: line %#x is Modified with no owner", ln)
	case e.owner != -1 && e.owner != 0 && e.owner != 1:
		return fmt.Errorf("cache: line %#x has invalid owner %d", ln, e.owner)
	case e.owner != -1 && !e.holders[e.owner]:
		return fmt.Errorf("cache: line %#x owned M/E by node %d which is not a holder", ln, e.owner)
	case e.owner != -1 && e.holders[1-e.owner]:
		return fmt.Errorf("cache: line %#x held M/E by node %d while node %d also holds it (S coexists with M/E)",
			ln, e.owner, 1-e.owner)
	case e.holders[0] && e.holders[1] && (e.owner != -1 || e.modified()):
		return fmt.Errorf("cache: line %#x shared by both nodes but owner=%d modified=%v",
			ln, e.owner, e.modified())
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

// accessLine performs the per-line simulation: coherence, level search,
// fill.
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
	if l1.watch != nil {
		// Another thread uses a parked spin loop's L1D: its stamps and
		// fills would interleave with the loop's.
		l1.watch.trigger()
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
		if w < 0 {
			w = l1.scan(ln)
		}
		if w >= 0 {
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
	// level searches below that are guaranteed to miss are skipped.
	e := h.entryFor(node, core, ln)
	held := e.holders[node]
	if isWrite {
		if e.flags&dirWatched != 0 {
			h.fireLine(ln, node, true)
		}
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
		e.flags |= dirModified
	} else {
		if e.holders[other] && int(e.owner) == other {
			// CXL Snoop Data: M/E at the other node; forward data, both S.
			// The demotion makes a write probe there pay a Snoop
			// Invalidate; a read probe's hits are unchanged.
			if e.flags&dirWatched != 0 {
				h.fireLine(ln, node, false)
			}
			cost += h.cfg.CrossNode.Data
			st.SnoopDataForwards++
			st.CoherenceLatency += h.cfg.CrossNode.Data
			e.owner = -1
			e.setModified(false)
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

	// Level searches. Reads already probed (and missed) L1 above. A search
	// changes nothing on a miss, so skipping one that must miss is exact.
	l3 := nc.l3
	if h.cfg.SharedL3 {
		l3 = h.sharedL3
	}
	if isWrite && held {
		w := l1.hit(ln)
		if w < 0 {
			w = l1.scan(ln)
		}
		if w >= 0 {
			l1.stamp(w)
			l1.ways[w] |= wayDirty
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
	w2 := -1
	// Without an L3 the L2 is the last level, and its double fill (fillL3
	// and fillLevel both insert) can leave a copy the directory no longer
	// lists; that L2 is always searched.
	if l2 != nil && (held || l3 == nil) {
		if w2 = l2.hit(ln); w2 < 0 {
			w2 = l2.scan(ln)
		}
	}
	if w2 >= 0 {
		l2.stamp(w2)
		if isWrite {
			l2.ways[w2] |= wayDirty
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
		w3 := -1
		if held || h.cfg.SharedL3 {
			if w3 = l3.hit(ln); w3 < 0 {
				w3 = l3.scan(ln)
			}
		}
		if w3 >= 0 {
			l3.stamp(w3)
			if isWrite {
				l3.ways[w3] |= wayDirty
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

	// Memory access. One region search gives the locality (as
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
// core) of a code window of lines lines at base, walked cyclically from
// line start, and returns how many it charged. Each one is exactly
// Access(node, core, Ifetch, line, LineSize) taking the L1I-hit path — the
// way becomes its set's most recently used, the node's and core's L1I access
// and hit counters and the hit latencies grow by one fetch — but the
// counters are added once for the whole run and no clock is advanced: the
// caller owes n·Lat.L1 cycles.
//
// The run stops before the first line that is not resident in the L1I (that
// fetch needs the full Access path: fill, directory, events) and charges
// nothing while a Tap is installed, since a Tap must observe every access.
// Of a run of n fetches only the last min(n, lines) are applied to the LRU
// order, in fetch order: a way's rank depends only on its last touch, and
// any lines consecutive fetches touch every window line (DESIGN §6,
// "Recency words").
func (h *Hierarchy) IfetchHits(node mem.NodeID, core int, base mem.PhysAddr, lines, start int, limit int64) int {
	if h.Tap != nil {
		return 0
	}
	nc := h.nodes[node]
	l1 := nc.l1i[core]
	if l1 == nil {
		return 0
	}
	// Check residency along the run until a line misses or the whole
	// window is found; then no fetch of the run can miss.
	first := lineOf(base)
	hits, j := int64(0), start
	for pass := min(limit, int64(lines)); hits < pass; hits++ {
		if ln := first + lineAddr(j); l1.hit(ln) < 0 && l1.scan(ln) < 0 {
			break
		}
		if j++; j == lines {
			j = 0
		}
	}
	if hits == int64(lines) {
		hits = limit
	}
	q := min(hits, int64(lines))
	for j = int((int64(start) + hits - q) % int64(lines)); q > 0; q-- {
		ln := first + lineAddr(j)
		w := l1.hit(ln)
		if w < 0 {
			w = l1.scan(ln)
		}
		l1.stamp(w)
		if j++; j == lines {
			j = 0
		}
	}
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
		l.ways[w] |= wayDirty
	}
}

// fillL3 inserts into the last level, maintaining inclusion: an evicted
// valid line is back-invalidated out of the inner levels and, since the node
// then holds no copy, cleared from the coherence directory.
func (h *Hierarchy) fillL3(node, core int, l3 *level, ln lineAddr, dirty bool) {
	st := &h.nodes[node].stats
	if l3 == nil {
		// Small configs without an L3 enforce inclusion at L2 instead.
		l2 := h.nodes[node].l2[core]
		if l2 == nil {
			return
		}
		w, evicted, wasValid, wasDirty := l2.insert(ln)
		if wasValid {
			h.onLastLevelEvict(node, evicted, wasDirty)
		}
		if dirty {
			// The back-invalidation above targets only the evicted line,
			// never ln, so w still holds the line just filled.
			l2.ways[w] |= wayDirty
		}
		return
	}
	w, evicted, wasValid, wasDirty := l3.insert(ln)
	if dirty {
		l3.ways[w] |= wayDirty
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
	if e.flags&dirWatched != 0 {
		h.fireLine(ln, -1, false)
	}
	e.holders[node] = false
	if int(e.owner) == node {
		e.owner = -1
		e.setModified(false)
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
// Every armed Watch fires first.
func (h *Hierarchy) Flush() {
	h.fireAll()
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
