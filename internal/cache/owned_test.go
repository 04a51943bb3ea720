package cache

// Differential fuzz of the owned-way write shortcut (DESIGN §10, "Owned
// ways"): a write hit on an owned L1D way skips the directory transaction,
// which is exact only if that transaction would have changed nothing. Two
// hierarchies of one geometry run the same script; the reference has every
// owned bit cleared before each access, so its writes always take the
// directory path. After every op both must have charged the same cycles
// and hold the same counters, directory, ways (owned bits aside), recency
// words, armed Watches and fired Watches.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// ownedGeometry is one machine the fuzz runs on: two nodes of two cores.
type ownedGeometry struct {
	name   string
	model  mem.Model
	config func() Config
}

var ownedGeometries = []ownedGeometry{
	{"default", mem.Shared, func() Config {
		cfg := DefaultConfig(mem.Shared)
		cfg.Nodes[0].Cores, cfg.Nodes[1].Cores = 2, 2
		return cfg
	}},
	{"sharedL3", mem.FullyShared, func() Config { return fetchRunConfig(mem.FullyShared, 16<<10) }},
	{"noL3", mem.Separated, func() Config { return fetchRunConfig(mem.Separated, 0) }},
}

// ownedPool is the fuzz's address pool: a few lines at the start of every
// region, and their aliases one and two l3Stride on, so the tiny
// geometries evict and back-invalidate owned lines.
func ownedPool(layout *mem.Layout) []mem.PhysAddr {
	var pool []mem.PhysAddr
	for _, r := range layout.Regions {
		for i := 0; i < 4; i++ {
			for k := 0; k < 3; k++ {
				pool = append(pool, r.Start+mem.PhysAddr(i)*mem.LineSize+mem.PhysAddr(k)*l3Stride)
			}
		}
	}
	return pool
}

// ownedSide is one hierarchy under comparison, with a Watch per core.
type ownedSide struct {
	h       *Hierarchy
	watch   [2][2]Watch
	fired   [2][2]int
	disowns bool // clear every owned bit before each access (the reference)
}

func newOwnedSide(cfg Config, layout *mem.Layout, ref bool) *ownedSide {
	return &ownedSide{h: NewHierarchy(cfg, layout), disowns: ref}
}

// reset returns the side to its state when built: Watches disarmed and
// unfired, every level empty with newLevel's recency words and no memo,
// and the directory, hints and counters clear.
func (s *ownedSide) reset() {
	for n := range s.watch {
		for c := range s.watch[n] {
			s.watch[n][c].Disarm()
		}
	}
	s.fired = [2][2]int{}
	s.h.Flush()
	s.h.ResetStats()
	for _, l := range s.h.levels() {
		if l != nil {
			for i := range l.order {
				l.order[i] = 0xFEDCBA9876543210 & l.ranks
			}
			clear(l.memo[:])
		}
	}
}

// ownedPair is one geometry's reference and shortcut sides, its address
// pool, and the sets the pool's lines map to in every level, each once.
type ownedPair struct {
	ref, got             *ownedSide
	refLevels, gotLevels []*level
	pool                 []mem.PhysAddr
	sets                 []ownedSet
}

// ownedSet is set s of level li of Hierarchy.levels; l1dNode is the node
// whose L1D the level is, or -1.
type ownedSet struct{ li, s, l1dNode int }

func newOwnedPair(g ownedGeometry) *ownedPair {
	layout := mem.DefaultLayout(g.model)
	p := &ownedPair{ref: newOwnedSide(g.config(), &layout, true), got: newOwnedSide(g.config(), &layout, false),
		pool: ownedPool(&layout)}
	p.refLevels, p.gotLevels = p.ref.h.levels(), p.got.h.levels()
	for li, l := range p.gotLevels {
		if l == nil {
			continue
		}
		node := -1
		for n, nc := range p.got.h.nodes {
			if slices.Contains(nc.l1d, l) {
				node = n
			}
		}
		for _, a := range p.pool {
			o := ownedSet{li, int(uint64(lineOf(a)) & l.mask), node}
			if !slices.Contains(p.sets, o) {
				p.sets = append(p.sets, o)
			}
		}
	}
	return p
}

// ownedPairs are built once per process, each on its geometry's first
// script, and reset before every script: building them for every script,
// the default geometry's full-size levels above all, halves the fuzzer's
// execs per second.
var ownedPairs = make([]*ownedPair, len(ownedGeometries))

func (s *ownedSide) access(node mem.NodeID, core int, kind Kind, addr mem.PhysAddr) sim.Cycles {
	if s.disowns {
		for _, nc := range s.h.nodes {
			for _, l1 := range nc.l1d {
				for i := range l1.ways {
					l1.ways[i] &^= wayOwned
				}
			}
		}
	}
	return s.h.Access(node, core, kind, addr, 8)
}

// ownedOp is one step of the script: op is 0 read, 1 write, 2 a read of
// the line after the other node wrote it, 3 arm a read Watch, 4 arm a
// write Watch on the line, 5 disarm, 6 Flush.
type ownedOp struct {
	op   int
	node mem.NodeID
	core int
	addr mem.PhysAddr
}

// apply runs op and returns its cycles, or for an Arm 1 if it armed.
func (s *ownedSide) apply(o ownedOp) sim.Cycles {
	n, c := int(o.node), o.core
	switch o.op {
	case 0:
		return s.access(o.node, o.core, Read, o.addr)
	case 1:
		return s.access(o.node, o.core, Write, o.addr)
	case 2:
		return s.access(1-o.node, o.core, Write, o.addr) + s.access(o.node, o.core, Read, o.addr)
	case 3, 4:
		if s.h.Arm(&s.watch[n][c], o.node, o.core, []mem.PhysAddr{o.addr}, o.op == 4, func() { s.fired[n][c]++ }) {
			return 1
		}
	case 5:
		s.watch[n][c].Disarm()
	default:
		s.h.Flush()
	}
	return 0
}

// ownedDiff returns how the shortcut side's simulated state differs from
// the reference's, or "", in the sets and directory cells of the pool's
// lines — all a script can change. It reads the counters directly: Stats
// and CoreStats would fire the Watches. It also holds the shortcut side's
// owned ways in those sets to their directory entries (CheckMESI's
// owned-way clause).
func ownedDiff(p *ownedPair) string {
	ref, got := p.ref, p.got
	for n := range ref.h.nodes {
		if want, have := ref.h.nodes[n].stats, got.h.nodes[n].stats; have != want {
			return fmt.Sprintf("node %d stats\n got %+v\nwant %+v", n, have, want)
		}
		if want, have := ref.h.nodes[n].coreStats, got.h.nodes[n].coreStats; !slices.Equal(have, want) {
			return fmt.Sprintf("node %d core stats\n got %+v\nwant %+v", n, have, want)
		}
		for c := range ref.watch[n] {
			if ref.watch[n][c].Armed() != got.watch[n][c].Armed() || ref.fired[n][c] != got.fired[n][c] {
				return fmt.Sprintf("node %d core %d watch: armed %v fired %d, want armed %v fired %d", n, c,
					got.watch[n][c].Armed(), got.fired[n][c], ref.watch[n][c].Armed(), ref.fired[n][c])
			}
		}
	}
	for _, o := range p.sets {
		want, have := p.refLevels[o.li], p.gotLevels[o.li]
		for wi := o.s << want.shift; wi < (o.s+1)<<want.shift; wi++ {
			if have.ways[wi]&^wayOwned != want.ways[wi]&^wayOwned {
				return fmt.Sprintf("level %d way %d: %#x, want %#x (owned bit aside)", o.li, wi, have.ways[wi], want.ways[wi])
			}
			if o.l1dNode >= 0 {
				if err := got.h.checkOwned(o.l1dNode, have.ways[wi]); err != nil {
					return err.Error()
				}
			}
		}
		// The same valid ways and the same recency word rank them alike.
		if have.order[o.s] == want.order[o.s] {
			continue
		}
		if h, w := have.recency(o.s), want.recency(o.s); !slices.Equal(h, w) {
			return fmt.Sprintf("level %d set %d: recency %v, want %v", o.li, o.s, h, w)
		}
	}
	for _, a := range p.pool {
		ln := lineOf(a)
		e, want := got.h.shardOf(ln).get(ln), ref.h.shardOf(ln).get(ln)
		if e == nil {
			e = &uncached
		}
		if want == nil {
			want = &uncached
		}
		if *e != *want {
			return fmt.Sprintf("directory line %#x: %+v, want %+v", ln, *e, *want)
		}
	}
	return ""
}

// runOwnedScript decodes data — byte 0 the geometry, then a byte pair per
// op: the op, node and core, and the line from the pool — and runs it on
// both sides, failing at the first op after which they differ or the
// shortcut side breaks the owned-way invariant, or at the end if it breaks
// invariant 1.
func runOwnedScript(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	gi := int(data[0]) % len(ownedGeometries)
	g := ownedGeometries[gi]
	if ownedPairs[gi] == nil {
		ownedPairs[gi] = newOwnedPair(g)
	}
	p := ownedPairs[gi]
	ref, got, pool := p.ref, p.got, p.pool
	ref.reset()
	got.reset()
	for i := 1; i+1 < len(data); i += 2 {
		b, l := data[i], int(data[i+1])
		o := ownedOp{op: int(b&7) % 7, node: mem.NodeID(b >> 3 & 1), core: int(b >> 4 & 1),
			addr: pool[l%len(pool)]}
		if want, have := ref.apply(o), got.apply(o); have != want {
			t.Fatalf("%s op %d %+v: %d, reference %d", g.name, i/2, o, have, want)
		}
		if diff := ownedDiff(p); diff != "" {
			t.Fatalf("%s op %d %+v: %s", g.name, i/2, o, diff)
		}
	}
	if err := got.h.CheckMESI(); err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
}

// FuzzOwnedWriteHit runs scripts of reads, writes, remote reads of owned
// lines, Watch arms and disarms and Flushes through the shortcut and the
// directory path. The seeds are a few hand-made scripts and a random one per
// geometry, weighted to writes, over 16 lines of the pool.
func FuzzOwnedWriteHit(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 0x09, 0, 1, 0})                   // write, remote read, write again
	f.Add([]byte{1, 1, 2, 4, 2, 1, 2, 0x19, 2, 1, 2, 6, 0, 1, 2}) // arm a write watch, a remote write fires it
	f.Add([]byte{2, 1, 3, 3, 3, 0x11, 3, 1, 3, 5, 3, 1, 3})       // a read watch, a write from its own node
	f.Add([]byte{0, 1, 5, 1, 5, 0x10, 5, 0x13, 5, 1, 5})          // a write to an owned line another core of its node polls
	rng := rand.New(rand.NewSource(1))
	for g := range ownedGeometries {
		data := []byte{byte(g)}
		for i := 0; i < 600; i++ {
			var op byte
			switch r := rng.Intn(100); {
			case r < 30:
				op = 0
			case r < 65:
				op = 1
			case r < 75:
				op = 2
			case r < 83:
				op = 3
			case r < 91:
				op = 4
			case r < 98:
				op = 5
			default:
				op = 6
			}
			data = append(data, op|byte(rng.Intn(4))<<3, byte(rng.Intn(16)))
		}
		f.Add(data)
	}
	f.Fuzz(runOwnedScript)
}
