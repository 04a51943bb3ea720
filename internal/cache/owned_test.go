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

// ownedDiff returns how got's simulated state differs from ref's, or "",
// in the sets and directory cells of the pool's lines — all a script can
// change. It reads the counters directly: Stats and CoreStats would fire
// the Watches. It also holds got's owned ways of those lines to their
// directory entries (CheckMESI's owned-way clause).
func ownedDiff(ref, got *ownedSide, pool []mem.PhysAddr) string {
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
	gotLevels := got.h.levels()
	for _, a := range pool {
		ln := lineOf(a)
		for li, want := range ref.h.levels() {
			if want == nil {
				continue
			}
			have, s := gotLevels[li], int(uint64(ln)&want.mask)
			for wi := s << want.shift; wi < (s+1)<<want.shift; wi++ {
				if have.ways[wi]&^wayOwned != want.ways[wi]&^wayOwned {
					return fmt.Sprintf("level %d way %d: %#x, want %#x (owned bit aside)", li, wi, have.ways[wi], want.ways[wi])
				}
			}
			if h, w := have.recency(s), want.recency(s); !slices.Equal(h, w) {
				return fmt.Sprintf("level %d set %d: recency %v, want %v", li, s, h, w)
			}
		}
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
		for n, nc := range got.h.nodes {
			for _, l1 := range nc.l1d {
				for _, w := range l1.setOf(ln) {
					if err := got.h.checkOwned(n, w); err != nil {
						return err.Error()
					}
				}
			}
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
	g := ownedGeometries[int(data[0])%len(ownedGeometries)]
	layout := mem.DefaultLayout(g.model)
	pool := ownedPool(&layout)
	ref, got := newOwnedSide(g.config(), &layout, true), newOwnedSide(g.config(), &layout, false)
	for i := 1; i+1 < len(data); i += 2 {
		b, l := data[i], int(data[i+1])
		o := ownedOp{op: int(b&7) % 7, node: mem.NodeID(b >> 3 & 1), core: int(b >> 4 & 1),
			addr: pool[l%len(pool)]}
		if want, have := ref.apply(o), got.apply(o); have != want {
			t.Fatalf("%s op %d %+v: %d, reference %d", g.name, i/2, o, have, want)
		}
		if diff := ownedDiff(ref, got, pool); diff != "" {
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
