package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newTestHierarchy(model mem.Model) *Hierarchy {
	layout := mem.DefaultLayout(model)
	return NewHierarchy(DefaultConfig(model), &layout)
}

func TestColdMissThenHit(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	lat := XeonGoldLatencies()

	// Cold miss walks all levels and local memory.
	c1 := h.Access(mem.NodeX86, 0, Read, 0x1000, 8)
	wantMiss := lat.L1 + lat.L2 + lat.L3 + lat.Mem
	if c1 != wantMiss {
		t.Errorf("cold miss latency = %d, want %d", c1, wantMiss)
	}
	// Second access hits L1.
	c2 := h.Access(mem.NodeX86, 0, Read, 0x1000, 8)
	if c2 != lat.L1 {
		t.Errorf("warm hit latency = %d, want %d", c2, lat.L1)
	}
	st := h.Stats(mem.NodeX86)
	if st.L1DAccesses != 2 || st.L1DHits != 1 || st.LocalMemHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRemoteMemoryLatency(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	armLocal := mem.PhysAddr(6 << 30)
	lat := XeonGoldLatencies()
	c := h.Access(mem.NodeX86, 0, Read, armLocal, 8)
	want := lat.L1 + lat.L2 + lat.L3 + lat.RemoteMem
	if c != want {
		t.Errorf("remote cold miss = %d, want %d", c, want)
	}
	st := h.Stats(mem.NodeX86)
	if st.RemoteMemHits != 1 || st.LocalMemHits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFullySharedAllLocal(t *testing.T) {
	h := newTestHierarchy(mem.FullyShared)
	c := h.Access(mem.NodeX86, 0, Read, mem.PhysAddr(6<<30), 8)
	lat := XeonGoldLatencies()
	want := lat.L1 + lat.L2 + lat.L3 + lat.Mem
	if c != want {
		t.Errorf("FullyShared access = %d, want local %d", c, want)
	}
	if st := h.Stats(mem.NodeX86); st.RemoteMemHits != 0 {
		t.Errorf("remote hits in FullyShared: %+v", st)
	}
}

func TestSharedPoolRemoteForBoth(t *testing.T) {
	h := newTestHierarchy(mem.Shared)
	pool := mem.PhysAddr(5 << 30)
	h.Access(mem.NodeX86, 0, Read, pool, 8)
	h.Access(mem.NodeArm, 0, Read, pool+4096, 8)
	if st := h.Stats(mem.NodeX86); st.RemoteSharedHits != 1 {
		t.Errorf("x86 RemoteSharedHits = %d, want 1", st.RemoteSharedHits)
	}
	if st := h.Stats(mem.NodeArm); st.RemoteSharedHits != 1 {
		t.Errorf("arm RemoteSharedHits = %d, want 1", st.RemoteSharedHits)
	}
}

func TestSnoopInvalidateOnWrite(t *testing.T) {
	h := newTestHierarchy(mem.Shared)
	addr := mem.PhysAddr(5 << 30)
	h.Access(mem.NodeArm, 0, Read, addr, 8) // arm caches the line
	if !h.HoldsLine(mem.NodeArm, addr) {
		t.Fatal("arm should hold the line")
	}
	h.Access(mem.NodeX86, 0, Write, addr, 8) // x86 writes: snoop invalidate
	if h.HoldsLine(mem.NodeArm, addr) {
		t.Error("arm still holds line after remote write")
	}
	if got := h.OwnerOf(addr); got != int(mem.NodeX86) {
		t.Errorf("owner after write = %d, want x86", got)
	}
	st := h.Stats(mem.NodeX86)
	if st.SnoopInvalidations != 1 {
		t.Errorf("SnoopInvalidations = %d, want 1", st.SnoopInvalidations)
	}
	// Arm's next read misses (invalidated) and pays a snoop-data forward
	// since x86 holds it modified.
	h.Access(mem.NodeArm, 0, Read, addr, 8)
	if st := h.Stats(mem.NodeArm); st.SnoopDataForwards != 1 {
		t.Errorf("arm SnoopDataForwards = %d, want 1", st.SnoopDataForwards)
	}
	// Now shared by both; nobody owns it exclusively.
	if got := h.OwnerOf(addr); got != -1 {
		t.Errorf("owner after read-share = %d, want -1", got)
	}
}

func TestMESIInvariantUnderRandomOps(t *testing.T) {
	h := newTestHierarchy(mem.Shared)
	rng := sim.NewRNG(1234)
	// A small address pool to force sharing and invalidation.
	addrs := make([]mem.PhysAddr, 64)
	for i := range addrs {
		addrs[i] = mem.PhysAddr(5<<30) + mem.PhysAddr(i*64)
	}
	for i := 0; i < 20000; i++ {
		node := mem.NodeID(rng.Intn(2))
		a := addrs[rng.Intn(len(addrs))]
		kind := Read
		if rng.Intn(3) == 0 {
			kind = Write
		}
		h.Access(node, 0, kind, a, 8)
		// Invariant: a line owned M/E by one node is not held by the other.
		if own := h.OwnerOf(a); own >= 0 {
			if h.HoldsLine(mem.NodeID(1-own), a) {
				t.Fatalf("line %#x owned by node %d but also held by node %d", a, own, 1-own)
			}
		}
		// And all of invariant 1, owned L1D ways included.
		checkMESI(t, h, i)
	}
}

func TestWriteIntensiveInvalidatinos(t *testing.T) {
	// Ping-pong writes between nodes must generate one invalidation per
	// write after the first.
	h := newTestHierarchy(mem.Shared)
	addr := mem.PhysAddr(5 << 30)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		h.Access(mem.NodeX86, 0, Write, addr, 8)
		h.Access(mem.NodeArm, 0, Write, addr, 8)
	}
	x := h.Stats(mem.NodeX86).SnoopInvalidations
	a := h.Stats(mem.NodeArm).SnoopInvalidations
	if x+a != 2*rounds-1 {
		t.Errorf("total invalidations = %d, want %d", x+a, 2*rounds-1)
	}
}

func TestLRUEviction(t *testing.T) {
	// A tiny direct-tracked working set larger than L1 must evict.
	layout := mem.DefaultLayout(mem.Separated)
	cfg := DefaultConfig(mem.Separated)
	h := NewHierarchy(cfg, &layout)
	l1Lines := cfg.Nodes[0].L1D.Size / mem.LineSize
	// Touch 2x the L1 capacity with stride 64.
	for i := 0; i < 2*l1Lines; i++ {
		h.Access(mem.NodeX86, 0, Read, mem.PhysAddr(i*64), 8)
	}
	st := h.Stats(mem.NodeX86)
	if st.L1DHits != 0 {
		t.Errorf("streaming reads produced %d L1 hits, want 0", st.L1DHits)
	}
	// Re-touch the first line: should have been evicted from L1, hit L2.
	before := h.Stats(mem.NodeX86).L2Hits
	h.Access(mem.NodeX86, 0, Read, 0, 8)
	if after := h.Stats(mem.NodeX86).L2Hits; after != before+1 {
		t.Errorf("expected L2 hit after L1 eviction (before=%d after=%d)", before, after)
	}
}

func TestL3InclusionBackInvalidate(t *testing.T) {
	// Evicting from L3 must kick the line out of L1/L2 too: a subsequent
	// access must go to memory.
	layout := mem.DefaultLayout(mem.Separated)
	cfg := DefaultConfig(mem.Separated)
	// Tiny L3 to force eviction quickly; L1/L2 big enough to keep lines.
	cfg.Nodes[0].L3 = LevelConfig{Size: 8 * 1024, Ways: 2} // 64 sets... 8KB/2way/64B = 64 sets
	h := NewHierarchy(cfg, &layout)

	// Fill one L3 set beyond capacity: same set index needs stride
	// sets*64 bytes.
	sets := cfg.Nodes[0].L3.Sets()
	stride := mem.PhysAddr(sets * mem.LineSize)
	base := mem.PhysAddr(0)
	for i := 0; i < 3; i++ { // 3 > 2 ways
		h.Access(mem.NodeX86, 0, Read, base+mem.PhysAddr(i)*stride, 8)
	}
	st := h.Stats(mem.NodeX86)
	if st.EvictionsL3 == 0 {
		t.Fatal("no L3 evictions despite overflow")
	}
	// The first line was LRU; it must be gone from the whole hierarchy.
	memBefore := h.Stats(mem.NodeX86).LocalMemHits
	h.Access(mem.NodeX86, 0, Read, base, 8)
	if h.Stats(mem.NodeX86).LocalMemHits != memBefore+1 {
		t.Error("line survived L3 eviction in an inner level (inclusion violated)")
	}
}

func TestIfetchSeparateFromData(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	h.Access(mem.NodeX86, 0, Ifetch, 0x1000, 4)
	h.Access(mem.NodeX86, 0, Read, 0x1000, 4)
	st := h.Stats(mem.NodeX86)
	if st.L1IAccesses != 1 || st.L1DAccesses != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The data read missed L1D (line is in L1I) but hits L2 by inclusion.
	if st.L1DHits != 0 || st.L2Hits != 1 {
		t.Errorf("want L1D miss + L2 hit, got %+v", st)
	}
	if st.MemAccesses != 1 {
		t.Errorf("ifetch counted as mem access: %+v", st)
	}
}

func TestMultiLineAccessChargesPerLine(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	lat := XeonGoldLatencies()
	// 128 bytes starting at a line boundary = 2 lines.
	c := h.Access(mem.NodeX86, 0, Read, 0x2000, 128)
	want := 2 * (lat.L1 + lat.L2 + lat.L3 + lat.Mem)
	if c != want {
		t.Errorf("2-line cold access = %d, want %d", c, want)
	}
}

func TestSharedL3FullySharedVisibility(t *testing.T) {
	h := newTestHierarchy(mem.FullyShared)
	addr := mem.PhysAddr(0x10000)
	h.Access(mem.NodeX86, 0, Read, addr, 8)
	// Arm misses its private L1/L2 but hits the shared L3.
	before := h.Stats(mem.NodeArm)
	h.Access(mem.NodeArm, 0, Read, addr, 8)
	after := h.Stats(mem.NodeArm)
	if after.L3Hits != before.L3Hits+1 {
		t.Errorf("arm did not hit shared L3: %+v", after)
	}
	if after.LocalMemHits != before.LocalMemHits {
		t.Errorf("arm went to memory despite shared L3")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	h.Access(mem.NodeX86, 0, Read, 0x1000, 8)
	h.ResetStats()
	if st := h.Stats(mem.NodeX86); st.L1DAccesses != 0 {
		t.Error("ResetStats did not zero counters")
	}
	lat := XeonGoldLatencies()
	if c := h.Access(mem.NodeX86, 0, Read, 0x1000, 8); c != lat.L1 {
		t.Errorf("cache contents lost by ResetStats: latency %d", c)
	}
}

func TestFlushDropsContents(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	h.Access(mem.NodeX86, 0, Read, 0x1000, 8)
	h.Flush()
	lat := XeonGoldLatencies()
	want := lat.L1 + lat.L2 + lat.L3 + lat.Mem
	if c := h.Access(mem.NodeX86, 0, Read, 0x1000, 8); c != want {
		t.Errorf("post-flush access = %d, want full miss %d", c, want)
	}
}

func TestHitRateHelper(t *testing.T) {
	if HitRate(0, 0) != 0 {
		t.Error("HitRate(0,0) != 0")
	}
	if HitRate(3, 4) != 0.75 {
		t.Error("HitRate(3,4) != 0.75")
	}
}

func TestLevelConfigSets(t *testing.T) {
	c := LevelConfig{Size: 32 << 10, Ways: 8}
	if c.Sets() != 64 {
		t.Errorf("Sets = %d, want 64", c.Sets())
	}
	if (LevelConfig{}).Sets() != 0 {
		t.Error("zero config must have 0 sets")
	}
}

func TestTable2LatencyValues(t *testing.T) {
	// Table 2 of the paper, verbatim.
	cases := []struct {
		name string
		lat  Latencies
		want [5]sim.Cycles // L1, L2, L3, mem, remote
	}{
		{"CortexA72", CortexA72Latencies(), [5]sim.Cycles{4, 9, 0, 300, 780}},
		{"ThunderX2", ThunderX2Latencies(), [5]sim.Cycles{4, 9, 30, 300, 620}},
		{"E5-2620", E5Latencies(), [5]sim.Cycles{4, 12, 38, 300, 640}},
		{"XeonGold", XeonGoldLatencies(), [5]sim.Cycles{4, 14, 50, 300, 640}},
	}
	for _, c := range cases {
		got := [5]sim.Cycles{c.lat.L1, c.lat.L2, c.lat.L3, c.lat.Mem, c.lat.RemoteMem}
		if got != c.want {
			t.Errorf("%s latencies = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCoherencePropertyLastWriterOwns(t *testing.T) {
	f := func(ops []uint8) bool {
		h := newTestHierarchy(mem.Shared)
		addr := mem.PhysAddr(5 << 30)
		lastWriter := -1
		for _, op := range ops {
			node := mem.NodeID(op & 1)
			if op&2 != 0 {
				h.Access(node, 0, Write, addr, 8)
				lastWriter = int(node)
			} else {
				h.Access(node, 0, Read, addr, 8)
				if lastWriter == int(1-node) {
					lastWriter = -1 // downgraded to shared
				}
			}
			if own := h.OwnerOf(addr); own >= 0 && h.HoldsLine(mem.NodeID(1-own), addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
