package cache

// Differential test for the directory-first miss path and the way memo:
// accessLine (which skips the level lookups the directory says must miss,
// resolves the region once, keeps its directory in the radix table and
// answers hits from the way memo) must leave the machine exactly where the
// accessLine from before either change — kept verbatim below, with every
// lookup a plain set scan, two region scans and a map directory — leaves it.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// missOracle is a Hierarchy whose miss path is the parent commit's. It owns
// its levels and counters like any Hierarchy, but its directory is the map
// reference of dir_test.go; the embedded radix shards stay empty.
type missOracle struct {
	*Hierarchy
	dir *mapDir
}

func newMissOracle(cfg Config, layout *mem.Layout) *missOracle {
	return &missOracle{Hierarchy: NewHierarchy(cfg, layout), dir: newMapDir()}
}

func (o *missOracle) Access(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int) sim.Cycles {
	var total sim.Cycles
	for ln := lineOf(addr); ln <= lineOf(addr+mem.PhysAddr(size-1)); ln++ {
		total += o.accessLine(int(node), core, kind, ln)
	}
	return total
}

func (o *missOracle) Flush() {
	o.Hierarchy.Flush()
	clear(o.dir.m)
}

// scanFor is the set scan alone, with no way memo: it returns the index of
// the lowest way of l holding ln, or -1. The oracle searches through it
// rather than hit and scan, so the memo under test can neither answer for
// it nor be written by it.
func scanFor(l *level, ln lineAddr) int {
	b := int((uint64(ln) & l.mask) << l.shift)
	for i, w := range l.setOf(ln) {
		if w.holds(ln) {
			return b + i
		}
	}
	return -1
}

// accessLine is the parent commit's, verbatim but for the directory calls
// (h.entryFor → o.dir.ensure), the helpers that touch the directory, the
// way searches (its one-entry hint and lookup → scanFor) and the way
// handles (a *way and its fields → an index into the level's ways).
func (o *missOracle) accessLine(node, core int, kind Kind, ln lineAddr) sim.Cycles {
	h := o.Hierarchy
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
		w := scanFor(l1, ln)
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

	e := o.dir.ensure(ln)
	if isWrite {
		if e.holders[other] {
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
		e.setModified(true)
	} else {
		if e.holders[other] && int(e.owner) == other {
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

	if isWrite {
		w := scanFor(l1, ln)
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
	if l2 != nil {
		w2 = scanFor(l2, ln)
	}
	if w := w2; w >= 0 {
		l2.stamp(w)
		if isWrite {
			l2.ways[w] |= wayDirty
		}
		st.L2Hits++
		cost += lat.L2
		st.CacheHitLatency += lat.L2
		h.fillLevel(l1, ln, isWrite)
		st.TotalLatency += cost
		return cost
	}
	cost += lat.L2

	l3 := nc.l3
	if h.cfg.SharedL3 {
		l3 = h.sharedL3
	}
	if l3 != nil {
		st.L3Accesses++
		w3 := scanFor(l3, ln)
		if w := w3; w >= 0 {
			l3.stamp(w)
			if isWrite {
				l3.ways[w] |= wayDirty
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

	pa := mem.PhysAddr(ln) * mem.LineSize
	loc := h.layout.Classify(mem.NodeID(node), pa)
	var memLat sim.Cycles
	if loc == mem.Local {
		st.LocalMemHits++
		memLat = lat.Mem
		st.LocalMemLatency += lat.Mem
	} else {
		st.RemoteMemHits++
		memLat = lat.RemoteMem
		st.RemoteMemLatency += lat.RemoteMem
		if r := h.layout.RegionAt(pa); r != nil && r.Owner == mem.NodeNone {
			st.RemoteSharedHits++
		}
	}
	cost += memLat
	if tr := h.Tracer; tr != nil {
		remote := int64(0)
		if loc != mem.Local {
			remote = 1
		}
		tr.Emit(trace.Event{Cycle: h.ctxCycle, Kind: trace.KindMemAccess,
			Node: int8(node), Core: int16(core), Tid: h.ctxTid,
			PA: uint64(pa), Arg: remote, Cost: int64(memLat)})
	}

	o.fillL3(node, core, l3, ln, isWrite)
	h.fillLevel(l2, ln, isWrite)
	h.fillLevel(l1, ln, isWrite)
	st.TotalLatency += cost
	return cost
}

// fillL3 is the parent commit's, verbatim.
func (o *missOracle) fillL3(node, core int, l3 *level, ln lineAddr, dirty bool) {
	h := o.Hierarchy
	st := &h.nodes[node].stats
	if l3 == nil {
		l2 := h.nodes[node].l2[core]
		w, evicted, wasValid, wasDirty := l2.insert(ln)
		if wasValid {
			o.onLastLevelEvict(node, evicted, wasDirty)
		}
		if dirty {
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
		for n := 0; n < 2; n++ {
			o.onLastLevelEvict(n, evicted, wasDirty)
		}
		return
	}
	o.onLastLevelEvict(node, evicted, wasDirty)
}

// onLastLevelEvict is the parent commit's, verbatim but for the map
// directory's ensure and delete.
func (o *missOracle) onLastLevelEvict(node int, ln lineAddr, dirty bool) {
	h := o.Hierarchy
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
	e := o.dir.ensure(ln)
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
		o.dir.remove(ln)
	}
}

// missOp is one scripted step of the miss-path script.
type missOp struct {
	kind       int // 0 access, 1 cross-node ping-pong, 2 thrash, 3 flush
	node       mem.NodeID
	core       int
	access     Kind
	addr       mem.PhysAddr
	size, k    int
	flipWriter bool
}

// missPathSide is one of the two hierarchies under comparison.
type missPathSide interface {
	Access(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr, size int) sim.Cycles
	Flush()
}

func applyMissOp(h missPathSide, op missOp) sim.Cycles {
	switch op.kind {
	case 0:
		return h.Access(op.node, op.core, op.access, op.addr, op.size)
	case 1:
		var total sim.Cycles
		for j := 0; j < op.k; j++ {
			kind := Read
			if j%2 == 0 != op.flipWriter {
				kind = Write
			}
			total += h.Access(mem.NodeID(j%2)^op.node, (op.core+j/2)%2, kind, op.addr, 8)
		}
		return total
	case 2:
		var total sim.Cycles
		for j := 1; j <= op.k; j++ {
			total += h.Access(op.node, op.core, op.access, op.addr+mem.PhysAddr(j)*l3Stride, 8)
		}
		return total
	default:
		h.Flush()
		return 0
	}
}

// missPool is the script's address pool: a run of lines at the start of
// every region of the layout and of the unmapped gap at 3 GiB, each run
// crossing the fetchRunConfig L3's set range so L3-strided thrashing and
// plain reuse both occur.
func missPool(layout *mem.Layout) []mem.PhysAddr {
	starts := []mem.PhysAddr{3 << 30}
	for _, r := range layout.Regions {
		starts = append(starts, r.Start)
	}
	var pool []mem.PhysAddr
	for _, s := range starts {
		for i := 0; i < 12; i++ {
			pool = append(pool, s+mem.PhysAddr(i)*mem.LineSize)
		}
	}
	return pool
}

// missScript draws the seeded script: reads, writes and ifetches from both
// nodes and both cores, some straddling a line boundary or spanning two
// lines; cross-node write/read ping-pong on one line; L3-thrashing strides;
// and the occasional Flush.
func missScript(rng *rand.Rand, pool []mem.PhysAddr, steps int) []missOp {
	ops := make([]missOp, 0, steps)
	for len(ops) < steps {
		op := missOp{node: mem.NodeID(rng.Intn(2)), core: rng.Intn(2), access: Kind(rng.Intn(3)),
			addr: pool[rng.Intn(len(pool))], size: 1 << rng.Intn(4)}
		switch r := rng.Intn(100); {
		case r < 60:
			switch rng.Intn(8) {
			case 0:
				op.addr, op.size = op.addr+mem.LineSize-2, 4
			case 1:
				op.size = 2 * mem.LineSize
			}
		case r < 80:
			op.kind, op.k, op.flipWriter = 1, 2+rng.Intn(5), rng.Intn(2) == 0
		case r < 99:
			op.kind, op.k = 2, 3+rng.Intn(6)
		default:
			op.kind = 3
		}
		ops = append(ops, op)
	}
	return ops
}

func TestAccessLineMatchesMissOracle(t *testing.T) {
	shapes := []struct {
		name  string
		model mem.Model
		l3    int
	}{
		{"privateL3", mem.Separated, 16 << 10},
		{"cxlPool", mem.Shared, 16 << 10},
		{"sharedL3", mem.FullyShared, 16 << 10},
		{"noL3", mem.Separated, 0},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				cfg := fetchRunConfig(sh.model, sh.l3)
				layout := mem.DefaultLayout(sh.model)
				ref, got := newMissOracle(cfg, &layout), NewHierarchy(cfg, &layout)
				refTrace, gotTrace := trace.NewBuffer(), trace.NewBuffer()
				ref.Tracer, got.Tracer = refTrace, gotTrace
				for i, op := range missScript(rand.New(rand.NewSource(seed)), missPool(&layout), 4000) {
					ref.TraceContext(int64(i), 1)
					got.TraceContext(int64(i), 1)
					if want, have := applyMissOp(ref, op), applyMissOp(got, op); have != want {
						t.Fatalf("step %d %+v: charged %d cycles, oracle %d", i, op, have, want)
					}
					for n := mem.NodeID(0); n < 2; n++ {
						if want, have := ref.Stats(n), got.Stats(n); have != want {
							t.Fatalf("step %d %+v: node %d stats\n got %+v\nwant %+v", i, op, n, have, want)
						}
						for c := 0; c < 2; c++ {
							if want, have := ref.CoreStats(n, c), got.CoreStats(n, c); have != want {
								t.Fatalf("step %d %+v: node %d core %d stats\n got %+v\nwant %+v", i, op, n, c, have, want)
							}
						}
					}
				}
				checkSameLevels(t, ref.Hierarchy, got)
				seen := 0
				got.forEachEntry(func(ln lineAddr, e *dirEntry) {
					seen++
					if want := ref.dir.read(ln); *e != want {
						t.Fatalf("directory line %#x: %+v, oracle %+v", ln, *e, want)
					}
				})
				if seen != len(ref.dir.m) {
					t.Fatalf("directory caches %d lines, oracle %d", seen, len(ref.dir.m))
				}
				if err := got.CheckMESI(); err != nil {
					t.Fatal(err)
				}
				if len(gotTrace.Events) != len(refTrace.Events) {
					t.Fatalf("%d trace events, oracle %d", len(gotTrace.Events), len(refTrace.Events))
				}
				for j, want := range refTrace.Events {
					if gotTrace.Events[j] != want {
						t.Fatalf("trace event %d: %+v, oracle %+v", j, gotTrace.Events[j], want)
					}
				}
			})
		}
	}

	// The differential run cannot tell a live filter from a dead one (a
	// filter that never skips is exact too), so plant a line the levels hold
	// but the directory does not list, and check that the miss path believes
	// the directory.
	t.Run("filter-is-live", func(t *testing.T) {
		h := newTestHierarchy(mem.Separated)
		lat := XeonGoldLatencies()
		miss := lat.L1 + lat.L2 + lat.L3 + lat.Mem
		const pa = 0x1000
		h.Access(mem.NodeX86, 0, Read, pa, 8)
		*h.entry(lineOf(pa)) = uncached
		h.nodes[mem.NodeX86].l1d[0].invalidate(lineOf(pa))
		if c := h.Access(mem.NodeX86, 0, Read, pa, 8); c != miss {
			t.Errorf("read of a line the directory does not list charged %d, want a full miss %d", c, miss)
		}
		*h.entry(lineOf(pa)) = uncached
		if c := h.Access(mem.NodeX86, 0, Write, pa, 8); c != miss {
			t.Errorf("write of a line the directory does not list charged %d, want a full miss %d", c, miss)
		}
	})

	// The no-L3 double fill puts a line in two ways of one L2 set. A memo
	// slot last written for another line with the same slot index can
	// name the higher copy; the L2 hit must still stamp the lower one, the
	// way the scan returns. x and ln share a memo slot, and every line here
	// shares one set of node 0's L1D and L2.
	t.Run("noL3-double-fill", func(t *testing.T) {
		cfg := fetchRunConfig(mem.Separated, 0)
		layout := mem.DefaultLayout(mem.Separated)
		ref, got := newMissOracle(cfg, &layout), NewHierarchy(cfg, &layout)
		const (
			p, x = 0x1000, 0x1400
			ln   = x + memoSize*mem.LineSize
		)
		step := func(node mem.NodeID, kind Kind, addr mem.PhysAddr) {
			op := missOp{node: node, access: kind, addr: addr, size: 8}
			if want, have := applyMissOp(ref, op), applyMissOp(got, op); have != want {
				t.Fatalf("%+v: charged %d cycles, oracle %d", op, have, want)
			}
		}
		step(0, Read, p) // L2 ways 0, 1
		step(0, Read, x) // L2 ways 2, 3
		step(1, Write, x)
		step(0, Read, x) // the snoop left way 3: the scan writes x's slot
		step(1, Write, x)
		step(0, Read, ln) // the double fill: ways 2 and 3
		set := got.nodes[0].l2[0].setOf(lineOf(ln))
		if !set[2].holds(lineOf(ln)) || !set[3].holds(lineOf(ln)) {
			t.Fatalf("L2 set %+v: the script no longer double-fills ways 2 and 3", set)
		}
		step(0, Read, 0x1200) // two lines of another L2 set evict ln from L1
		step(0, Read, 0x1600)
		step(0, Read, ln) // an L2 hit
		checkSameLevels(t, ref.Hierarchy, got)
	})
}
