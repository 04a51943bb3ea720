package cache

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
)

// MaxWatchLines is the most lines one Watch polls.
const MaxWatchLines = 4

// Watch is a parked spin loop's claim on the cache state its probes depend
// on (DESIGN.md §6, "Spin parking"). While it is armed, its core's L1D holds
// every watched line, so each skipped probe would be L1D hits that only add
// to counters and re-stamp lines already most recently used. The first
// event that could change what a probe observes or costs fires it — and
// disarms it — before the event takes effect:
//
//   - any data access through the core's L1D by another thread (its stamps
//     and fills would interleave with the probes');
//   - a write to a watched line, from any core of either node (dirWatched
//     is tested where the write path already loads the line's entry) —
//     for a watch whose probes are writes, from the other node only;
//   - for a watch whose probes are writes, a read of a watched line from
//     the other node, which demotes the line the probes hit in M state
//     (the Snoop Data branch, which loads the same entry);
//   - a watched line leaving a last level (the eviction path's entry load),
//     which also covers the back-invalidation out of the L1D;
//   - Flush, and reading or resetting the counters (Stats, CoreStats,
//     ResetStats), which must include the skipped probes.
//
// The zero value is disarmed. A Watch is reused park after park without
// allocating.
type Watch struct {
	h     *Hierarchy
	l1    *level
	lines [MaxWatchLines]lineAddr
	n     int
	fire  func()
	armed bool
	// write: the probes are writes (a CAS) by node, each an L1D write hit.
	write bool
	node  int
}

// Arm arms w for a spin loop on (node, core) probing the lines holding
// addrs, calling fire on the first disturbing event. It arms nothing and
// returns false unless every line is resident in the core's L1D, no other
// Watch holds that L1D, no Tap is installed and len(addrs) <= MaxWatchLines;
// with write (the probes are writes), also unless the node holds every line
// in M state, alone, so that each probe would be a write hit. A write watch
// ignores writes from its own node, which leave its copy and the line's
// directory entry as they are: a change of a watched word's value is then
// the caller's to catch (kernel.Task.SpinCAS: the lock's release disturbs
// its waiters). Arm charges nothing and changes no simulated cache state.
func (h *Hierarchy) Arm(w *Watch, node mem.NodeID, core int, addrs []mem.PhysAddr, write bool, fire func()) bool {
	l1 := h.nodes[node].l1d[core]
	if w.armed || h.Tap != nil || l1.watch != nil || len(addrs) > MaxWatchLines {
		return false
	}
	for _, a := range addrs {
		ln := lineOf(a)
		if l1.hit(ln) < 0 && l1.scan(ln) < 0 {
			return false
		}
		if write {
			if e := h.entry(ln); int(e.owner) != int(node) || !e.modified() || e.holders[1-node] {
				return false
			}
		}
	}
	w.h, w.l1, w.n, w.fire, w.write, w.node, w.armed = h, l1, len(addrs), fire, write, int(node), true
	for i, a := range addrs {
		w.lines[i] = lineOf(a)
		h.entry(w.lines[i]).flags |= dirWatched
	}
	l1.watch = w
	h.watches = append(h.watches, w)
	return true
}

// Disarm disarms w if it is armed; firing is then the caller's business.
func (w *Watch) Disarm() {
	if !w.armed {
		return
	}
	h := w.h
	w.armed = false
	w.l1.watch = nil
	h.watches = slices.DeleteFunc(h.watches, func(o *Watch) bool { return o == w })
	for _, ln := range w.lines[:w.n] {
		if !h.watched(ln) {
			h.entry(ln).flags &^= dirWatched
		}
	}
}

// Armed reports whether w is armed.
func (w *Watch) Armed() bool { return w.armed }

// watched reports whether an armed Watch polls ln.
func (h *Hierarchy) watched(ln lineAddr) bool {
	for _, w := range h.watches {
		if slices.Contains(w.lines[:w.n], ln) {
			return true
		}
	}
	return false
}

// trigger disarms w and fires it.
func (w *Watch) trigger() {
	w.Disarm()
	w.fire()
}

// fireLine fires the armed Watches polling ln that an access to it by
// node changes — every one for an eviction (node < 0). A write changes
// what a read probe reads. A write from the other node invalidates the
// line a write probe hits, and a read from there demotes it from M; a
// write from the watcher's own node changes neither its copy nor the
// directory entry, and the word's value is the lock's to guard (Arm).
func (h *Hierarchy) fireLine(ln lineAddr, node int, write bool) {
	for i := 0; i < len(h.watches); {
		w := h.watches[i]
		if (node < 0 || w.write && w.node != node || !w.write && write) && slices.Contains(w.lines[:w.n], ln) {
			w.trigger() // removes h.watches[i]
			continue
		}
		i++
	}
}

// fireAll fires every armed Watch, in arming order.
func (h *Hierarchy) fireAll() {
	for len(h.watches) > 0 {
		h.watches[0].trigger()
	}
}

// ReplayL1DHits adds n data reads by (node, core) that hit its L1D to the
// node's and the core's counters, exactly as n Access calls taking the
// read L1-hit path would, and returns their latency. It touches no cache
// state: it accounts the probes a parked spin loop skipped, whose stamps
// were no-ops.
func (h *Hierarchy) ReplayL1DHits(node mem.NodeID, core int, n int64) sim.Cycles {
	nc := h.nodes[node]
	st, cs := &nc.stats, &nc.coreStats[core]
	cycles := sim.Cycles(n) * h.cfg.Nodes[node].Lat.L1
	st.L1DAccesses += n
	cs.L1DAccesses += n
	st.MemAccesses += n
	st.L1DHits += n
	cs.L1DHits += n
	st.CacheHitLatency += cycles
	st.TotalLatency += cycles
	return cycles
}
