package cache

// Differential test for the recency-word LRU: a level must choose every
// victim, answer every scan and rank every set's valid ways exactly as the
// per-way timestamp level it replaced, kept verbatim below, over seeded and
// fuzzed scripts of fills, hits, scans, invalidations and flushes.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// stampWay, stampLevel and their methods are the parent commit's way and
// level, verbatim but for the names and the way memo, which no replacement
// decision reads: scan is the plain set scan.
type stampWay struct {
	line  lineAddr
	valid bool
	dirty bool
	used  int64 // global LRU timestamp
}

type stampLevel struct {
	ways  []stampWay
	assoc int
	mask  uint64
	tick  int64
}

func newStampLevel(c LevelConfig) *stampLevel {
	n := c.Sets()
	return &stampLevel{ways: make([]stampWay, n*c.Ways), assoc: c.Ways, mask: uint64(n - 1)}
}

func (l *stampLevel) setOf(a lineAddr) []stampWay {
	s := (uint64(a) & l.mask) * uint64(l.assoc)
	return l.ways[s : s+uint64(l.assoc)]
}

func (l *stampLevel) scan(a lineAddr) *stampWay {
	set := l.setOf(a)
	for i := range set {
		if set[i].valid && set[i].line == a {
			return &set[i]
		}
	}
	return nil
}

func (l *stampLevel) insert(a lineAddr) (filled *stampWay, evicted lineAddr, wasValid, wasDirty bool) {
	if l == nil {
		return nil, 0, false, false
	}
	set := l.setOf(a)
	victim := l.victimIn(set)
	w := &set[victim]
	evicted, wasValid, wasDirty = w.line, w.valid, w.dirty
	l.tick++
	*w = stampWay{line: a, valid: true, used: l.tick}
	return w, evicted, wasValid, wasDirty
}

func (l *stampLevel) victimIn(set []stampWay) int {
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

func (l *stampLevel) stamp(w *stampWay) {
	l.tick++
	w.used = l.tick
}

func (l *stampLevel) invalidate(a lineAddr) (present, dirty bool) {
	if l == nil {
		return false, false
	}
	set := l.setOf(a)
	for i := range set {
		if set[i].valid && set[i].line == a {
			present, dirty = true, set[i].dirty
			set[i] = stampWay{}
			return present, dirty
		}
	}
	return false, false
}

func (l *stampLevel) flushAll() {
	if l == nil {
		return
	}
	for i := range l.ways {
		l.ways[i] = stampWay{}
	}
}

// index returns w's index in l.ways, or -1 for nil.
func (l *stampLevel) index(w *stampWay) int {
	for i := range l.ways {
		if &l.ways[i] == w {
			return i
		}
	}
	return -1
}

// recency lists set s's valid ways, as indices within the set, from most to
// least recently used.
func (l *stampLevel) recency(s int) []int {
	set := l.ways[s*l.assoc : (s+1)*l.assoc]
	var out []int
	for i := range set {
		if set[i].valid {
			out = append(out, i)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return int(set[b].used - set[a].used) })
	return out
}

// recency lists set s's valid ways, as indices within the set, from most to
// least recently used: the word's ranks with the invalid ways left out.
func (l *level) recency(s int) []int {
	set := l.ways[s<<l.shift : (s+1)<<l.shift]
	var out []int
	for r := range set {
		if i := int(l.order[s]>>(4*r)) & 0xF; set[i].valid() {
			out = append(out, i)
		}
	}
	return out
}

// lruOp is one step of a level script.
type lruOp struct {
	kind  int // 0 insert, 1 hit + stamp, 2 scan, 3 invalidate, 4 flush
	line  lineAddr
	dirty bool // insert and hit: mark the way dirty
}

// lruPair is a timestamp level and a recency-word level of one geometry.
type lruPair struct {
	ref *stampLevel
	got *level
}

func newLRUPair(c LevelConfig) lruPair { return lruPair{newStampLevel(c), newLevel(c)} }

// apply runs op on both levels and returns the first difference in its
// results or in the levels it leaves, or "".
func (p lruPair) apply(op lruOp) string {
	ref, got := p.ref, p.got
	switch op.kind {
	case 0:
		rw, rev, rv, rd := ref.insert(op.line)
		gw, gev, gv, gd := got.insert(op.line)
		if op.dirty {
			rw.dirty = true
			got.ways[gw] |= wayDirty
		}
		if r := ref.index(rw); gw != r || gev != rev || gv != rv || gd != rd {
			return fmt.Sprintf("insert: way %d evicting %#x valid=%v dirty=%v, timestamp level way %d evicting %#x valid=%v dirty=%v",
				gw, gev, gv, gd, r, rev, rv, rd)
		}
	case 1:
		rw := ref.scan(op.line)
		gw := got.hit(op.line)
		if gw < 0 {
			gw = got.scan(op.line)
		}
		if r := ref.index(rw); gw != r {
			return fmt.Sprintf("hit: way %d, timestamp level way %d", gw, r)
		}
		if rw != nil {
			ref.stamp(rw)
			got.stamp(gw)
			if op.dirty {
				rw.dirty = true
				got.ways[gw] |= wayDirty
			}
		}
	case 2:
		if g, r := got.scan(op.line), ref.index(ref.scan(op.line)); g != r {
			return fmt.Sprintf("scan: way %d, timestamp level way %d", g, r)
		}
	case 3:
		gp, gd := got.invalidate(op.line)
		if rp, rd := ref.invalidate(op.line); gp != rp || gd != rd {
			return fmt.Sprintf("invalidate: present=%v dirty=%v, timestamp level %v %v", gp, gd, rp, rd)
		}
	default:
		ref.flushAll()
		got.flushAll()
	}
	for i, rw := range ref.ways {
		if g := got.ways[i]; g.line() != rw.line || g.valid() != rw.valid || g.dirty() != rw.dirty {
			return fmt.Sprintf("way %d holds %#x valid=%v dirty=%v, timestamp level %+v", i, g.line(), g.valid(), g.dirty(), rw)
		}
	}
	for s := range got.order {
		if g, r := got.recency(s), ref.recency(s); !slices.Equal(g, r) {
			return fmt.Sprintf("set %d ranks its valid ways %v, timestamp level %v", s, g, r)
		}
	}
	return ""
}

// lruScript draws a seeded script over a line pool a little larger than
// the level, line 0 (an invalidated way's zeroed tag) included: mostly
// fills and hits, so sets run full and evict, with scans, invalidations,
// the occasional flush, and fills of a line the level already holds (the
// no-L3 L2's double fill).
func lruScript(rng *rand.Rand, sets, ways, steps int) []lruOp {
	pool := sets * (ways + 2)
	ops := make([]lruOp, 0, steps)
	for len(ops) < steps {
		op := lruOp{line: lineAddr(rng.Intn(pool)), dirty: rng.Intn(3) == 0}
		switch r := rng.Intn(100); {
		case r < 35:
		case r < 75:
			op.kind = 1
		case r < 85:
			op.kind = 2
		case r < 99:
			op.kind = 3
		default:
			op.kind = 4
		}
		ops = append(ops, op)
		if op.kind == 0 && rng.Intn(10) == 0 {
			ops = append(ops, lruOp{line: op.line})
		}
	}
	return ops
}

func TestLevelMatchesTimestampLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("ways=%d/seed=%d", ways, seed), func(t *testing.T) {
				const sets = 4
				p := newLRUPair(LevelConfig{Size: sets * ways * mem.LineSize, Ways: ways})
				evictions := 0
				for i, op := range lruScript(rand.New(rand.NewSource(seed)), sets, ways, 4000) {
					if op.kind == 0 && p.ref.setOf(op.line)[p.ref.victimIn(p.ref.setOf(op.line))].valid {
						evictions++
					}
					if diff := p.apply(op); diff != "" {
						t.Fatalf("step %d %+v: %s", i, op, diff)
					}
				}
				if evictions < 100 {
					t.Errorf("only %d fills evicted a valid line: the script no longer runs sets full", evictions)
				}
			})
		}
	}
}

// FuzzLevelLRU decodes its input as a level geometry and an op script and
// runs it through the timestamp level and the recency-word level. Byte 0
// picks 2, 4, 8 or 16 ways and 1, 2 or 4 sets; each following byte pair
// is one op: the kind, the dirty bit and the line from the pool.
func FuzzLevelLRU(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 8, 1, 1, 1, 16, 0})
	f.Add([]byte{0x0b, 0, 0, 0, 0, 1, 0, 3, 0, 0, 4, 32, 5})
	f.Add([]byte{1, 0, 1, 0, 5, 0, 9, 3, 5, 0, 13, 0, 1, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways, sets := 2<<(data[0]&3), 1<<(data[0]>>2%3)
		p := newLRUPair(LevelConfig{Size: sets * ways * mem.LineSize, Ways: ways})
		pool := sets * (ways + 2)
		for i := 1; i+1 < len(data); i += 2 {
			op := lruOp{kind: int(data[i]&7) % 5, dirty: data[i]&8 != 0, line: lineAddr(int(data[i+1]) % pool)}
			if diff := p.apply(op); diff != "" {
				t.Fatalf("op %d %+v on %d ways × %d sets: %s", i/2, op, ways, sets, diff)
			}
		}
	})
}
