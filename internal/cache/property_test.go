package cache

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// checkMESI asserts DESIGN invariant 1 (the exported Hierarchy.CheckMESI)
// at one step of a schedule.
func checkMESI(t *testing.T, h *Hierarchy, step int) {
	t.Helper()
	if err := h.CheckMESI(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// includedLevels lists the levels of node n whose lines the directory must
// list as held by n — the invariant the directory-first miss path relies on
// (DESIGN §6, "Directory-first misses"): every L1I and L1D, the private L3,
// and every L2 when the node has an L3. Without an L3 the L2 is exempt: a
// memory miss fills it twice, and back-invalidation removes one copy —
// which is why accessLine always searches such an L2.
func includedLevels(h *Hierarchy, n int) []*level {
	nc := h.nodes[n]
	levels := []*level{nc.l3}
	for c := range nc.l2 {
		levels = append(levels, nc.l1i[c], nc.l1d[c])
		if nc.l3 != nil || h.sharedL3 != nil {
			levels = append(levels, nc.l2[c])
		}
	}
	return levels
}

// checkLines asserts the MESI invariant and inclusion for the given lines,
// with included[n] = includedLevels(h, n). A schedule that can only cache
// those lines calls it after every step.
func checkLines(t *testing.T, h *Hierarchy, included [2][]*level, lines []lineAddr, step int) {
	t.Helper()
	for _, ln := range lines {
		e := h.shardOf(ln).get(ln)
		if e == nil {
			e = &uncached
		}
		if err := e.checkMESI(ln); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for n, levels := range included {
			if e.holders[n] {
				continue
			}
			for _, l := range levels {
				if l == nil {
					continue
				}
				for _, w := range l.setOf(ln) {
					if w.holds(ln) {
						t.Fatalf("step %d: line %#x is in a private level of node %d, which the directory does not list",
							step, ln, n)
					}
				}
			}
		}
	}
}

// checkInclusion asserts inclusion for every valid way of the machine.
func checkInclusion(t *testing.T, h *Hierarchy) {
	t.Helper()
	for n := range h.nodes {
		for _, l := range includedLevels(h, n) {
			if l == nil {
				continue
			}
			for _, w := range l.ways {
				if w.valid() && !h.HoldsLine(mem.NodeID(n), mem.PhysAddr(w.line())*mem.LineSize) {
					t.Fatalf("line %#x is in a private level of node %d, which the directory does not list", w.line(), n)
				}
			}
		}
	}
}

// candidateLines builds a small pool of addresses drawn from every region
// of the layout (both nodes' local memory plus any shared pool), kept
// deliberately tight so random schedules produce heavy cross-node sharing,
// set conflicts, and L3 evictions.
func candidateLines(layout *mem.Layout) []mem.PhysAddr {
	var addrs []mem.PhysAddr
	add := func(r mem.Region) {
		for i := 0; i < 24; i++ {
			addrs = append(addrs, r.Start+mem.PhysAddr(i*mem.LineSize))
			// A second run far into the region, aliasing the first run's
			// cache sets at a different tag.
			addrs = append(addrs, r.Start+mem.PhysAddr(i*mem.LineSize)+(1<<26))
		}
	}
	for n := 0; n < 2; n++ {
		for _, r := range layout.OwnedRegions(mem.NodeID(n)) {
			add(r)
		}
	}
	for _, r := range layout.SharedRegions() {
		add(r)
	}
	return addrs
}

// TestMESIInvariantRandomSchedules drives random cross-node access
// schedules through the hierarchy in all three hardware models and checks
// the MESI safety invariant (DESIGN.md §5, invariant 1) and the directory's
// inclusion invariant on every line the schedule can touch after every
// access, and on the whole machine at the end: on the default geometry from
// core 0, and on fetchRunConfig's tiny two-core geometries — with an L3,
// and without one — from both cores, where the pool thrashes every level.
func TestMESIInvariantRandomSchedules(t *testing.T) {
	const (
		seeds = 6
		steps = 3000
	)
	for _, model := range []mem.Model{mem.Separated, mem.Shared, mem.FullyShared} {
		t.Run(fmt.Sprintf("model=%d", int(model)), func(t *testing.T) {
			layout := mem.DefaultLayout(model)
			addrs := candidateLines(&layout)
			if len(addrs) == 0 {
				t.Fatal("no candidate addresses")
			}
			var lines []lineAddr // every line an access below can touch
			seen := make(map[lineAddr]bool)
			for _, a := range addrs {
				for _, ln := range []lineAddr{lineOf(a), lineOf(a) + 1} {
					if !seen[ln] {
						seen[ln] = true
						lines = append(lines, ln)
					}
				}
			}
			geometries := []struct {
				name  string
				cfg   Config
				cores int
			}{
				{"default", DefaultConfig(model), 1},
				{"2cores", fetchRunConfig(model, 16<<10), 2},
				{"noL3", fetchRunConfig(model, 0), 2},
			}
			for _, g := range geometries {
				t.Run(g.name, func(t *testing.T) {
					for seed := uint64(1); seed <= seeds; seed++ {
						h := NewHierarchy(g.cfg, &layout)
						included := [2][]*level{includedLevels(h, 0), includedLevels(h, 1)}
						rng := sim.NewRNG(seed*0x9E37 + uint64(model))
						for step := 0; step < steps; step++ {
							node := mem.NodeID(rng.Intn(2))
							kind := Kind(rng.Intn(3))
							addr := addrs[rng.Intn(len(addrs))]
							size := 1 << rng.Intn(4) // 1..8 bytes
							// Occasionally straddle a line boundary.
							if rng.Intn(8) == 0 {
								addr += mem.PhysAddr(mem.LineSize - 2)
								size = 4
							}
							h.Access(node, rng.Intn(g.cores), kind, addr, size)
							checkLines(t, h, included, lines, step)
						}
						checkMESI(t, h, steps)
						checkInclusion(t, h)
						// Directory state must also agree with the public view.
						h.forEachEntry(func(ln lineAddr, e *dirEntry) {
							pa := mem.PhysAddr(ln) * mem.LineSize
							for n := 0; n < 2; n++ {
								if h.HoldsLine(mem.NodeID(n), pa) != e.holders[n] {
									t.Fatalf("HoldsLine(%d, %#x) disagrees with directory", n, pa)
								}
							}
							if h.OwnerOf(pa) != int(e.owner) {
								t.Fatalf("OwnerOf(%#x) = %d, directory says %d", pa, h.OwnerOf(pa), e.owner)
							}
						})
					}
				})
			}
		})
	}
}
