package cache

// Hot-path microbenchmarks and allocation guards for the flat-table memory
// pipeline. The simulator's throughput is bounded by accessLine, so these
// pin its cost and its zero-allocation contract on the paths that dominate
// real runs: the warm L1 hit, L1 hits scattered over a resident working
// set, the cache-miss path (with directory churn
// from inclusive-LLC evictions), a cold stream over more directory than the
// host caches hold, the cross-node snoop path, and a last-level fill into a
// full set the host caches do not hold.

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// missStride aliases the default geometry in every level: line-number
// stride 4096 is a multiple of the L1 (64), L2 (1024) and L3 (4096) set
// counts, so all strided addresses share one set per level.
const missStride = 4096 * mem.LineSize

// BenchmarkAccessLineL1Hit measures the warm L1 hit, the most frequent
// operation in any simulation.
func BenchmarkAccessLineL1Hit(b *testing.B) {
	h := newTestHierarchy(mem.Separated)
	h.Access(mem.NodeX86, 0, Read, 0x1000, 8)
	var sink sim.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Access(mem.NodeX86, 0, Read, 0x1000, 8)
	}
	_ = sink
}

// scatterLines is the scatter working set: 256 adjacent lines, half the
// default 512-line L1D, so every one stays resident.
const scatterLines = 256

// scatterHierarchy returns a hierarchy whose L1D holds the scatter working
// set, and 64 Ki reads of it in a fixed pseudo-random order — too long for
// the host's branch predictor to learn where in its set each line sits.
func scatterHierarchy() (*Hierarchy, []mem.PhysAddr) {
	h := newTestHierarchy(mem.Separated)
	for i := 0; i < scatterLines; i++ {
		h.Access(mem.NodeX86, 0, Read, 0x10000+mem.PhysAddr(i)*mem.LineSize, 8)
	}
	rng := rand.New(rand.NewSource(1))
	order := make([]mem.PhysAddr, 1<<16)
	for i := range order {
		order[i] = 0x10000 + mem.PhysAddr(rng.Intn(scatterLines))*mem.LineSize
	}
	return h, order
}

// BenchmarkAccessLineL1Scatter measures an L1 hit on a line other than the
// last one hit, the common case in real runs: the level's way memo answers
// it where a one-entry hint would rescan the set.
func BenchmarkAccessLineL1Scatter(b *testing.B) {
	h, order := scatterHierarchy()
	var sink sim.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Access(mem.NodeX86, 0, Read, order[i&(len(order)-1)], 8)
	}
	_ = sink
}

// TestL1ScatterZeroAllocs: a pass over the scatter order hits L1 every time
// and allocates nothing.
func TestL1ScatterZeroAllocs(t *testing.T) {
	h, order := scatterHierarchy()
	before := h.Stats(mem.NodeX86)
	pass := func() {
		for _, a := range order {
			h.Access(mem.NodeX86, 0, Read, a, 8)
		}
	}
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("scattered L1 hits allocate %.0f objects per %d-read pass, want 0", allocs, len(order))
	}
	after := h.Stats(mem.NodeX86)
	if hits, reads := after.L1DHits-before.L1DHits, after.L1DAccesses-before.L1DAccesses; hits != reads {
		t.Errorf("%d of %d scattered reads hit L1: the working set is no longer resident", hits, reads)
	}
}

// BenchmarkAccessLineMiss measures the full miss path: 32 lines aliased
// into one set of every level thrash the 16-way L3, so each access walks
// all levels, reaches memory, and churns the coherence directory through
// inclusive-eviction removes and re-inserts.
func BenchmarkAccessLineMiss(b *testing.B) {
	h := newTestHierarchy(mem.Separated)
	var sink sim.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Access(mem.NodeX86, 0, Read, mem.PhysAddr(i%32)*missStride, 8)
	}
	_ = sink
}

// coldLines is the cold stream's working set: 1 Mi lines (64 MiB, 16× the
// L3), so every write misses every level and evicts from the L3, over
// 4 MiB of directory cells — the shape of ZeroPage on fresh frames.
// BenchmarkAccessLineMiss thrashes one set, so its directory stays in the
// host's L1 and does not show directory cost.
const coldLines = 1 << 20

func coldStream(h *Hierarchy, i int) sim.Cycles {
	return h.Access(mem.NodeX86, 0, Write, mem.PhysAddr(i%coldLines)*mem.LineSize, 8)
}

// BenchmarkAccessLineColdStream measures one write of the cold stream, once
// the directory has seen every line.
func BenchmarkAccessLineColdStream(b *testing.B) {
	h := newTestHierarchy(mem.Separated)
	for i := 0; i < coldLines; i++ {
		coldStream(h, i)
	}
	var sink sim.Cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += coldStream(h, i)
	}
	_ = sink
}

// TestColdStreamZeroAllocs: once the directory's leaves for the stream
// exist, a full pass allocates nothing.
func TestColdStreamZeroAllocs(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	pass := func() {
		for i := 0; i < coldLines; i++ {
			coldStream(h, i)
		}
	}
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("steady-state cold stream allocates %.0f objects per %d-line pass, want 0", allocs, coldLines)
	}
}

// BenchmarkAccessLineCrossNodeSnoop measures the coherence slow path:
// alternating writes to one line from both nodes force a CXL snoop
// invalidate on every access.
func BenchmarkAccessLineCrossNodeSnoop(b *testing.B) {
	h := newTestHierarchy(mem.Separated)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(mem.NodeID(i&1), 0, Write, 0x2000, 8)
	}
}

// TestMissPathZeroAllocs extends the zero-allocation guard beyond the warm
// L1 hit (trace_guard_test.go) to the miss path: a steady-state working
// set that misses every level, evicts from the inclusive L3 and deletes/
// re-inserts directory entries must not allocate once the directory table
// has reached its steady capacity.
func TestMissPathZeroAllocs(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	touch := func() {
		for i := 0; i < 32; i++ {
			h.Access(mem.NodeX86, 0, Read, mem.PhysAddr(i)*missStride, 8)
		}
	}
	touch() // warm: materialize directory capacity
	allocs := testing.AllocsPerRun(200, touch)
	if allocs != 0 {
		t.Errorf("steady-state miss path allocates %.2f objects per 32-access round, want 0", allocs)
	}
}

// TestSnoopPathZeroAllocs pins the cross-node coherence path (snoop
// invalidate + snoop data forward) to zero steady-state allocations.
func TestSnoopPathZeroAllocs(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	pingPong := func() {
		h.Access(mem.NodeX86, 0, Write, 0x2000, 8)
		h.Access(mem.NodeArm, 0, Read, 0x2000, 8)
		h.Access(mem.NodeArm, 0, Write, 0x2000, 8)
		h.Access(mem.NodeX86, 0, Read, 0x2000, 8)
	}
	pingPong()
	allocs := testing.AllocsPerRun(200, pingPong)
	if allocs != 0 {
		t.Errorf("snoop path allocates %.2f objects per ping-pong, want 0", allocs)
	}
}

// fullLevel returns a default-geometry L3 level (4 MiB, 16 ways, 4096 sets)
// with every set full, and its set indices in a fixed shuffled order, so a
// fill walking them finds each set cold in the host caches, as a last-level
// miss stream does.
func fullLevel() (*level, []lineAddr) {
	cfg := DefaultNodeConfig(XeonGoldLatencies()).L3
	l, sets := newLevel(cfg), cfg.Sets()
	for i := 0; i < sets*cfg.Ways; i++ {
		l.insert(lineAddr(i))
	}
	order := make([]lineAddr, sets)
	for i, s := range rand.New(rand.NewSource(1)).Perm(sets) {
		order[i] = lineAddr(s)
	}
	return l, order
}

// BenchmarkLevelFillFull measures one fill into a full set of the L3-sized
// level: choosing the LRU victim and replacing it.
func BenchmarkLevelFillFull(b *testing.B) {
	l, order := fullLevel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.insert(lineAddr(i)<<12 | order[i&(len(order)-1)])
	}
}

// TestLevelFillZeroAllocs: a pass of fills over every set evicts on every
// fill and allocates nothing.
func TestLevelFillZeroAllocs(t *testing.T) {
	l, order := fullLevel()
	next := lineAddr(1)
	pass := func() {
		for _, s := range order {
			if _, _, wasValid, _ := l.insert(next<<12 | s); !wasValid {
				t.Fatal("a fill into a full set evicted nothing")
			}
			next++
		}
	}
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("fills into full sets allocate %.0f objects per %d-fill pass, want 0", allocs, len(order))
	}
}
