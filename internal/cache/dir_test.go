package cache

// Differential property test for the radix coherence directory (dir.go): a
// map-backed reference with the semantics of the original map directory is
// driven through randomized operation sequences in lockstep with dirTable,
// and the two must agree on every observation. The directory's contents are
// timing-relevant (holders/owner state decides snoop charges), so the radix
// table must be indistinguishable from the map it stands for — where "not
// in the map" reads as uncached, because that is how the hierarchy reads an
// absent entry.

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// mapDir is the reference directory: create-as-uncached on ensure, delete on
// remove.
type mapDir struct {
	m map[lineAddr]*dirEntry
}

func newMapDir() *mapDir { return &mapDir{m: make(map[lineAddr]*dirEntry)} }

func (d *mapDir) ensure(k lineAddr) *dirEntry {
	e := d.m[k]
	if e == nil {
		e = &dirEntry{owner: -1}
		d.m[k] = e
	}
	return e
}

func (d *mapDir) remove(k lineAddr) { delete(d.m, k) }

// read is the observable state of k: its entry, or uncached when absent.
func (d *mapDir) read(k lineAddr) dirEntry {
	if e := d.m[k]; e != nil {
		return *e
	}
	return uncached
}

func (t *dirTable) read(k lineAddr) dirEntry {
	if e := t.get(k); e != nil {
		return *e
	}
	return uncached
}

// TestDirTableMatchesMapDirectory drives dirTable and the map reference
// through identical randomized operation sequences — cell/ensure with
// random MESI mutations, removes (a store of uncached on the radix side),
// lookups — over keys that cross leaf boundaries, fall below the table's
// base, and land beyond the root span in the spill map, and checks that
// every observation agrees, that forEach visits exactly the cached lines,
// and that no cell ever moves.
func TestDirTableMatchesMapDirectory(t *testing.T) {
	const (
		seeds = 8
		steps = 20000
		base  = lineAddr(0x40000)
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed * 0x1234567)
			flat := dirTable{base: base}
			ref := newMapDir()

			var keys []lineAddr
			for i := 0; i < 400; i++ {
				keys = append(keys,
					base+dirLeafSize-200+lineAddr(i),            // across a leaf boundary
					base+lineAddr(i)*977,                        // strided over many leaves
					base-1-lineAddr(i),                          // below the base: spill
					base+dirRootLimit*dirLeafSize+lineAddr(i)*3, // beyond the root span: spill
				)
			}
			cells := make(map[lineAddr]*dirEntry)

			for step := 0; step < steps; step++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(10) {
				case 0, 1, 2:
					if got, want := flat.read(k), ref.read(k); got != want {
						t.Fatalf("step %d: read(%#x): flat=%+v ref=%+v", step, k, got, want)
					}
				case 3, 4:
					if e := flat.get(k); e != nil {
						*e = uncached
					}
					ref.remove(k)
				default:
					fe, re := flat.cell(k), ref.ensure(k)
					if *fe != *re {
						t.Fatalf("step %d: cell(%#x) = %+v, ref ensure = %+v", step, k, *fe, *re)
					}
					if prev := cells[k]; prev != nil && prev != fe {
						t.Fatalf("step %d: cell(%#x) moved", step, k)
					}
					cells[k] = fe
					mut := dirEntry{
						holders: [2]bool{rng.Intn(2) == 0, rng.Intn(2) == 0},
						owner:   int8(rng.Intn(3) - 1),
					}
					mut.setModified(rng.Intn(2) == 0)
					*fe = mut
					*re = mut
				}
			}

			for k, e := range cells {
				if flat.get(k) != e {
					t.Fatalf("cell %#x moved", k)
				}
			}
			seen := 0
			flat.forEach(func(k lineAddr, e *dirEntry) {
				seen++
				if want := ref.read(k); *e != want || want == uncached {
					t.Fatalf("forEach visited %#x = %+v, ref has %+v", k, *e, want)
				}
			})
			cached := 0
			for _, e := range ref.m {
				if *e != uncached {
					cached++
				}
			}
			if seen != cached {
				t.Fatalf("forEach visited %d lines, ref caches %d", seen, cached)
			}
			if len(flat.spill) == 0 || len(flat.root) < 2 {
				t.Fatalf("keys reached %d leaves and %d spill lines: the pool no longer covers both", len(flat.root), len(flat.spill))
			}
		})
	}
}
