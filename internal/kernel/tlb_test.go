package kernel

// Unit, property and allocation tests for the direct-mapped array TLB
// (tlb.go). The modelled TLB is unbounded — host data-structure choices
// must not change which accesses miss — so the array+overflow combination
// is differentially tested against a plain map with randomized operation
// sequences that force slot conflicts and overflow displacement.

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

func pageVA(pageNo int) pgtable.VirtAddr {
	return pgtable.VirtAddr(pageNo) << mem.PageShift
}

// collidingPage returns a page number > pageNo whose hashed TLB index
// matches pageNo's, i.e. an alias that will displace it from its slot.
func collidingPage(t testing.TB, pageNo int) int {
	want := tlbIndex(pageVA(pageNo))
	for pg := pageNo + 1; pg < pageNo+1<<20; pg++ {
		if tlbIndex(pageVA(pg)) == want {
			return pg
		}
	}
	t.Fatal("no colliding page found")
	return 0
}

func TestTLBInsertLookupInvalidate(t *testing.T) {
	var tb taskTLB
	a, b := pageVA(7), pageVA(collidingPage(t, 7)) // same direct-mapped slot

	if _, _, _, ok := tb.lookup(a); ok {
		t.Fatal("empty TLB reported a hit")
	}
	tb.insert(a, 0x1000, nil, true)
	if fr, _, w, ok := tb.lookup(a); !ok || fr != 0x1000 || !w {
		t.Fatalf("lookup(a) = %#x,%v,%v", fr, w, ok)
	}

	// Conflicting insert displaces a into the overflow, not out of the TLB.
	tb.insert(b, 0x2000, nil, false)
	if fr, _, _, ok := tb.lookup(b); !ok || fr != 0x2000 {
		t.Fatalf("lookup(b) = %#x,%v", fr, ok)
	}
	if fr, _, w, ok := tb.lookup(a); !ok || fr != 0x1000 || !w {
		t.Fatalf("displaced entry lost: lookup(a) = %#x,%v,%v", fr, w, ok)
	}
	if tb.size() != 2 {
		t.Fatalf("size = %d, want 2", tb.size())
	}

	// Writability upgrade replaces the overflow copy, never duplicates it.
	tb.insert(a, 0x1000, nil, false)
	if _, _, w, ok := tb.lookup(a); !ok || w {
		t.Fatalf("after downgrade-reinsert: writable=%v ok=%v", w, ok)
	}
	if tb.size() != 2 {
		t.Fatalf("size after reinsert = %d, want 2", tb.size())
	}

	tb.invalidate(a)
	if _, _, _, ok := tb.lookup(a); ok {
		t.Fatal("invalidate(a) left a visible")
	}
	if _, _, _, ok := tb.lookup(b); !ok {
		t.Fatal("invalidate(a) dropped b")
	}
	tb.invalidateAll()
	if tb.size() != 0 {
		t.Fatalf("size after invalidateAll = %d, want 0", tb.size())
	}
}

// TestTLBMatchesMapModel drives the array TLB and an unbounded map model
// through identical randomized sequences of inserts, host-byte fills,
// invalidations, full flushes and lookups, over a page pool engineered to
// alias heavily mod tlbSlots, and demands identical visibility at every
// step.
func TestTLBMatchesMapModel(t *testing.T) {
	type modelEntry struct {
		frame    mem.PhysAddr
		host     *[mem.PageSize]byte
		writable bool
	}
	hosts := []*[mem.PageSize]byte{nil, new([mem.PageSize]byte), new([mem.PageSize]byte)}
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed * 7919)
			var tb taskTLB
			model := make(map[pgtable.VirtAddr]modelEntry)

			// 8 slot positions × 6 aliasing generations: chains of pages
			// that collide under the hashed index, so inserts displace
			// into the overflow constantly.
			var pool []pgtable.VirtAddr
			for s := 0; s < 8; s++ {
				pg := s * 3
				for g := 0; g < 6; g++ {
					pool = append(pool, pageVA(pg))
					pg = collidingPage(t, pg)
				}
			}

			for step := 0; step < 30000; step++ {
				pva := pool[rng.Intn(len(pool))]
				switch rng.Intn(10) {
				case 0:
					tb.invalidate(pva)
					delete(model, pva)
				case 1:
					if rng.Intn(20) == 0 {
						tb.invalidateAll()
						for k := range model {
							delete(model, k)
						}
					}
				case 2, 3, 4:
					fr := mem.PhysAddr(rng.Intn(1<<20)) << mem.PageShift
					host := hosts[rng.Intn(len(hosts))]
					w := rng.Intn(2) == 0
					tb.insert(pva, fr, host, w)
					model[pva] = modelEntry{frame: fr, host: host, writable: w}
				case 5:
					host := hosts[1+rng.Intn(len(hosts)-1)]
					tb.setHost(pva, host)
					if me, ok := model[pva]; ok {
						me.host = host
						model[pva] = me
					}
				default:
					fr, host, w, ok := tb.lookup(pva)
					me, mok := model[pva]
					if ok != mok {
						t.Fatalf("step %d: lookup(%#x) presence: tlb=%v model=%v", step, pva, ok, mok)
					}
					if ok && (fr != me.frame || host != me.host || w != me.writable) {
						t.Fatalf("step %d: lookup(%#x): tlb=(%#x,%p,%v) model=(%#x,%p,%v)",
							step, pva, fr, host, w, me.frame, me.host, me.writable)
					}
				}
				if tb.size() != len(model) {
					t.Fatalf("step %d: size %d, model %d", step, tb.size(), len(model))
				}
			}
		})
	}
}

// TestFlushAllTLBsInvalidatesInPlace asserts the satellite contract: a
// full TLB flush (the migration/exit path) invalidates every translation
// without allocating — no map reallocation, no garbage.
func TestFlushAllTLBsInvalidatesInPlace(t *testing.T) {
	p := &Process{}
	for i := 0; i < 3; i++ {
		tk := &Task{}
		for pg := 0; pg < 2*tlbSlots; pg++ { // front slots and overflow both
			tk.tlb.insert(pageVA(pg), mem.PhysAddr(pg)<<mem.PageShift, nil, true)
		}
		p.Tasks = append(p.Tasks, tk)
	}
	allocs := testing.AllocsPerRun(100, p.FlushAllTLBs)
	if allocs != 0 {
		t.Errorf("FlushAllTLBs allocates %.2f objects/flush, want 0", allocs)
	}
	for _, tk := range p.Tasks {
		if tk.tlb.size() != 0 {
			t.Fatal("flush left live translations")
		}
		if _, _, _, ok := tk.tlb.lookup(pageVA(1)); ok {
			t.Fatal("flushed translation still visible")
		}
	}
}

// BenchmarkTLBLookup measures the TLB-hit fast path: one mask, one tag
// compare. The acceptance contract is 0 allocs/op.
func BenchmarkTLBLookup(b *testing.B) {
	var tb taskTLB
	for pg := 0; pg < 64; pg++ {
		tb.insert(pageVA(pg), mem.PhysAddr(pg)<<mem.PageShift, nil, true)
	}
	var sink mem.PhysAddr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, _, _, _ := tb.lookup(pageVA(i & 63))
		sink += fr
	}
	_ = sink
}

// BenchmarkTLBLookupOverflow measures the conflict path: the looked-up
// page lives in the overflow map behind an aliasing front-slot occupant.
func BenchmarkTLBLookupOverflow(b *testing.B) {
	var tb taskTLB
	tb.insert(pageVA(3), 0x1000, nil, true)
	tb.insert(pageVA(collidingPage(b, 3)), 0x2000, nil, true) // displaces page 3 to overflow
	var sink mem.PhysAddr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, _, _, _ := tb.lookup(pageVA(3))
		sink += fr
	}
	_ = sink
}
