package cache

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// cacheState renders the simulated cache state of h: every level's ways
// and recency words, and the directory. The way memos and directory hints
// are host-side hints and left out.
func cacheState(h *Hierarchy) string {
	var b strings.Builder
	lv := func(name string, l *level) {
		if l != nil {
			fmt.Fprintf(&b, "%s %x %x\n", name, l.ways, l.order)
		}
	}
	for n, nc := range h.nodes {
		for c := range nc.l1d {
			lv(fmt.Sprintf("n%d l1d%d", n, c), nc.l1d[c])
			lv(fmt.Sprintf("n%d l1i%d", n, c), nc.l1i[c])
			lv(fmt.Sprintf("n%d l2.%d", n, c), nc.l2[c])
		}
		lv(fmt.Sprintf("n%d l3", n), nc.l3)
	}
	lv("shared l3", h.sharedL3)
	var dir []string
	h.forEachEntry(func(ln lineAddr, e *dirEntry) { dir = append(dir, fmt.Sprintf("%x %+v", ln, *e)) })
	slices.Sort(dir)
	fmt.Fprintf(&b, "dir %v\n", dir)
	return b.String()
}

// casLine puts the line holding addr in node 0 core 0's L1D, Modified
// there and held by no other node, the way a failed CAS leaves its lock
// word: node 1 read it first, then node 0 wrote it twice.
func casLine(h *Hierarchy, addr mem.PhysAddr) {
	h.Access(mem.NodeArm, 0, Read, addr, 8)
	h.Access(mem.NodeX86, 0, Write, addr, 8)
	h.Access(mem.NodeX86, 0, Write, addr, 8)
}

// TestWriteHitIsReplayL1DHits is the premise of a parked CAS probe
// (kernel.Task.SpinCAS): a write by a core whose L1D holds the line, and
// whose node alone holds it Modified, costs the L1 latency, changes
// exactly the node's and core's counters that ReplayL1DHits adds for one
// hit, and changes no simulated cache state.
func TestWriteHitIsReplayL1DHits(t *testing.T) {
	for _, model := range []mem.Model{mem.Separated, mem.Shared, mem.FullyShared} {
		t.Run(fmt.Sprint(model), func(t *testing.T) {
			addr := mem.PhysAddr(0x40_0000)
			hit, replayed := newTestHierarchy(model), newTestHierarchy(model)
			casLine(hit, addr)
			casLine(replayed, addr)
			before := cacheState(hit)
			lat := hit.cfg.Nodes[mem.NodeX86].Lat.L1
			if c := hit.Access(mem.NodeX86, 0, Write, addr, 8); c != lat {
				t.Fatalf("the write costs %d cycles, want the L1 hit's %d", c, lat)
			}
			if c := replayed.ReplayL1DHits(mem.NodeX86, 0, 1); c != lat {
				t.Fatalf("ReplayL1DHits returns %d cycles, want %d", c, lat)
			}
			if after := cacheState(hit); after != before {
				t.Errorf("the write hit changed the cache state\n--- before\n%s--- after\n%s", before, after)
			}
			for n := mem.NodeID(0); n < 2; n++ {
				if g, w := replayed.Stats(n), hit.Stats(n); g != w {
					t.Errorf("%v: replayed %+v, written %+v", n, g, w)
				}
				for c := range hit.nodes[n].coreStats {
					if g, w := replayed.CoreStats(n, c), hit.CoreStats(n, c); g != w {
						t.Errorf("%v core %d: replayed %+v, written %+v", n, c, g, w)
					}
				}
			}
		})
	}
}

// TestWriteWatchFiresOnRemoteRead checks the firing rule only a watch
// over write probes has: a read of its line from the other node demotes
// the line out of M through the Snoop Data branch, so it fires, and the
// next write — the spinning loop's next CAS — pays a Snoop Invalidate on
// top of the L1 hit. A watch over read probes on the same Modified line
// stays armed: a read hit costs the same in S state. A demoted line no
// longer arms a write watch.
func TestWriteWatchFiresOnRemoteRead(t *testing.T) {
	for _, write := range []bool{true, false} {
		t.Run(fmt.Sprintf("write=%v", write), func(t *testing.T) {
			h := newTestHierarchy(mem.Shared)
			addr := mem.PhysAddr(0x40_0000)
			casLine(h, addr)
			var w Watch
			fired := false
			if !h.Arm(&w, mem.NodeX86, 0, []mem.PhysAddr{addr}, write, func() { fired = true }) {
				t.Fatal("Arm refused a line resident and Modified in the core's L1D")
			}
			h.Access(mem.NodeArm, 0, Read, addr, 8)
			if fired != write || w.Armed() != !write {
				t.Fatalf("after the remote read: fired %v, armed %v", fired, w.Armed())
			}
			w.Disarm()
			if write && h.Arm(&w, mem.NodeX86, 0, []mem.PhysAddr{addr}, true, func() {}) {
				t.Error("Arm accepted a write watch on a line the other node shares")
			}
			w.Disarm()
			lat := h.cfg.Nodes[mem.NodeX86].Lat.L1
			if c, want := h.Access(mem.NodeX86, 0, Write, addr, 8), h.cfg.CrossNode.Invalidate+lat; c != want {
				t.Errorf("the next write costs %d cycles, want Invalidate + L1 = %d", c, want)
			}
		})
	}
}
