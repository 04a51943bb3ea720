package cache

// The coherence directory maps a line to its MESI state. Every access that
// is not a read L1 hit consults it, and the OS paths of Figs. 11–13 (zero,
// copy or install a page) walk it line after consecutive line, so it is
// indexed by address rather than hashed: a two-level radix table whose
// leaves hold dirLeafSize consecutive lines' entries inline (16 KiB of
// entries covering 256 KiB of memory) — a page's 64 lines are 64 adjacent
// 4-byte cells. Each shard's root is based at the lowest line of the
// regions the shard holds, so a shard whose memory starts high (the CXL
// pool at 4 GiB) pays nothing for the space below it. Lines below the base
// or beyond dirRootLimit leaves spill into a map, like mem.Physical.
//
// An absent line and an uncached one ({no holders, owner -1, !modified})
// are the same thing: leaves are created uncached, so dropping a line is a
// store and a cell never moves once created — the per-core dirHint holds a
// pointer to it. TestDirTableMatchesMapDirectory holds the table to a map
// with create-on-ensure/delete-on-remove semantics.
const (
	dirLeafBits = 12
	dirLeafSize = 1 << dirLeafBits
	// dirRootLimit caps a root at 64 Ki leaves (512 KiB of pointers),
	// spanning 16 GiB above the shard's base: twice the 8 GB machine.
	dirRootLimit = 1 << 16
)

// uncached is the state of every line no node caches, including every line
// the table has never seen.
var uncached = dirEntry{owner: -1}

type dirLeaf [dirLeafSize]dirEntry

// dirTable is one directory shard. The zero value is an empty table based at
// line 0.
type dirTable struct {
	base  lineAddr               // the first line of root[0]
	root  []*dirLeaf             // grown geometrically on demand
	spill map[lineAddr]*dirEntry // lines below base or beyond the root span
}

// get returns line k's entry, or nil if the table has never created it
// (read it as uncached). It mutates nothing, so ParallelSafe may probe a
// shard another domain is not writing.
func (t *dirTable) get(k lineAddr) *dirEntry {
	i := uint64(k - t.base) // wraps beyond the root span for k < base
	if r := i >> dirLeafBits; r < uint64(len(t.root)) && t.root[r] != nil {
		return &t.root[r][i&(dirLeafSize-1)]
	}
	return t.spill[k]
}

// cell returns line k's entry, creating it uncached if needed. The pointer
// stays valid until reset.
func (t *dirTable) cell(k lineAddr) *dirEntry {
	if e := t.get(k); e != nil {
		return e
	}
	return t.create(k)
}

// create is cell's slow path: a new leaf (every line uncached), after
// growing the root if it is too short, or a new spill entry.
func (t *dirTable) create(k lineAddr) *dirEntry {
	i := uint64(k - t.base)
	r := i >> dirLeafBits
	if r >= dirRootLimit {
		if t.spill == nil {
			t.spill = make(map[lineAddr]*dirEntry)
		}
		e := new(dirEntry)
		*e = uncached
		t.spill[k] = e
		return e
	}
	if r >= uint64(len(t.root)) {
		grown := make([]*dirLeaf, min(max(r+1, 2*uint64(len(t.root))), dirRootLimit))
		copy(grown, t.root)
		t.root = grown
	}
	leaf := new(dirLeaf)
	for j := range leaf {
		leaf[j] = uncached
	}
	t.root[r] = leaf
	return &leaf[i&(dirLeafSize-1)]
}

// forEach visits every cached line: radix lines in address order, then the
// spill map in map order. Only CheckMESI and tests iterate, so the order
// cannot influence timing.
func (t *dirTable) forEach(f func(lineAddr, *dirEntry)) {
	for r, leaf := range t.root {
		if leaf == nil {
			continue
		}
		for j := range leaf {
			if leaf[j] != uncached {
				f(t.base+lineAddr(r<<dirLeafBits+j), &leaf[j])
			}
		}
	}
	for k, e := range t.spill {
		if *e != uncached {
			f(k, e)
		}
	}
}

// reset forgets every line. Outstanding cell pointers (the dirHints) must
// be dropped with it.
func (t *dirTable) reset() {
	t.root, t.spill = nil, nil
}
