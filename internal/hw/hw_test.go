package hw

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// runOn spawns a single simulated thread on node/core, runs body, and
// returns the thread's final clock.
func runOn(t *testing.T, plat *Platform, node mem.NodeID, body func(pt *Port)) sim.Cycles {
	t.Helper()
	var end sim.Cycles
	plat.Engine.Spawn("test", 0, func(th *sim.Thread) {
		pt := plat.NewPort(node, 0, th)
		body(pt)
		end = th.Now()
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	return end
}

func TestPortReadWriteMovesData(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	data := []byte("fused-kernel")
	runOn(t, plat, mem.NodeX86, func(pt *Port) {
		pt.Write(0x1000, data)
		got := make([]byte, len(data))
		pt.ReadInto(0x1000, got)
		if !bytes.Equal(got, data) {
			t.Errorf("ReadInto = %q, want %q", got, data)
		}
	})
}

func TestPortChargesCacheLatency(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	end := runOn(t, plat, mem.NodeX86, func(pt *Port) {
		pt.Read64(0x1000) // cold: L1+L2+L3+mem = 4+14+50+300
		pt.Read64(0x1000) // warm: 4
	})
	if end != 372 {
		t.Errorf("total cycles = %d, want 372", end)
	}
}

func TestPortRemoteCostsMore(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	local := runOn(t, plat, mem.NodeX86, func(pt *Port) { pt.Read64(0x1000) })
	plat2 := NewPlatform(DefaultConfig(mem.Separated))
	remote := runOn(t, plat2, mem.NodeX86, func(pt *Port) { pt.Read64(mem.PhysAddr(6 << 30)) })
	if remote <= local {
		t.Errorf("remote access (%d) not more expensive than local (%d)", remote, local)
	}
}

func TestCopyPageMovesDataAndCharges(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	end := runOn(t, plat, mem.NodeX86, func(pt *Port) {
		payload := make([]byte, mem.PageSize)
		for i := range payload {
			payload[i] = byte(i % 251)
		}
		pt.Write(0x4000, payload)
		pt.CopyPage(0x8000, 0x4000)
		if !plat.Phys.SamePage(0x8000, 0x4000) {
			t.Error("CopyPage did not copy")
		}
	})
	// 64 lines read + 64 lines written + the original write: must be
	// thousands of cycles, not a token constant.
	if end < 5000 {
		t.Errorf("page copy suspiciously cheap: %d cycles", end)
	}
}

// TestReadIntoChargesOneAccess: ReadInto is one cache access of len(dst)
// bytes — the same cycles and cache counters on both nodes as a bare
// Caches.Access of that size — and returns the bytes the other node wrote,
// for a page-sized read that straddles two frames and lines the other node
// wrote. It allocates nothing.
func TestReadIntoChargesOneAccess(t *testing.T) {
	const src = mem.PhysAddr(0x4000 + 100)
	type outcome struct {
		end   sim.Cycles
		stats [2]cache.Stats
		data  []byte
	}
	payload := make([]byte, 2*mem.PageSize)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	run := func(into bool) outcome {
		plat := NewPlatform(DefaultConfig(mem.Shared))
		runOn(t, plat, mem.NodeArm, func(pt *Port) { pt.Write(0x4000, payload) })
		var out outcome
		out.data = make([]byte, mem.PageSize)
		out.end = runOn(t, plat, mem.NodeX86, func(pt *Port) {
			if into {
				pt.ReadInto(src, out.data)
			} else {
				pt.T.Advance(plat.Caches.Access(pt.Node, pt.Core, cache.Read, src, mem.PageSize))
			}
		})
		out.stats = [2]cache.Stats{plat.Caches.Stats(0), plat.Caches.Stats(1)}
		return out
	}
	want, got := run(false), run(true)
	if got.end != want.end {
		t.Errorf("ReadInto ended at cycle %d, one Access at %d", got.end, want.end)
	}
	if got.stats != want.stats {
		t.Errorf("cache stats\n ReadInto %+v\n   Access %+v", got.stats, want.stats)
	}
	if !bytes.Equal(got.data, payload[100:100+mem.PageSize]) {
		t.Error("ReadInto returned bytes other than those written")
	}

	plat := NewPlatform(DefaultConfig(mem.Shared))
	runOn(t, plat, mem.NodeX86, func(pt *Port) {
		dst := make([]byte, mem.PageSize)
		if avg := testing.AllocsPerRun(100, func() { pt.ReadInto(src, dst) }); avg != 0 {
			t.Errorf("ReadInto allocates %.1f times per call, want 0", avg)
		}
	})
}

func TestCASAtomicity(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Shared))
	const addr = mem.PhysAddr(5 << 30)
	const iters = 200
	for n := 0; n < 2; n++ {
		node := mem.NodeID(n)
		plat.Engine.Spawn(node.String(), 0, func(th *sim.Thread) {
			pt := plat.NewPort(node, 0, th)
			for i := 0; i < iters; i++ {
				for {
					old := pt.Read64(addr)
					if _, ok := pt.CompareAndSwap64(addr, old, old+1); ok {
						break
					}
				}
			}
		})
	}
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := plat.Phys.Read64(addr); got != 2*iters {
		t.Errorf("CAS-incremented counter = %d, want %d", got, 2*iters)
	}
}

func TestAtomicAdd(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Shared))
	const addr = mem.PhysAddr(5 << 30)
	for n := 0; n < 2; n++ {
		node := mem.NodeID(n)
		plat.Engine.Spawn(node.String(), 0, func(th *sim.Thread) {
			pt := plat.NewPort(node, 0, th)
			for i := 0; i < 100; i++ {
				pt.AtomicAdd64(addr, 1)
			}
		})
	}
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := plat.Phys.Read64(addr); got != 200 {
		t.Errorf("atomic counter = %d, want 200", got)
	}
}

func TestIPIDeliveryLatency(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	var arrived sim.Cycles
	plat.RegisterIPIHandler(mem.NodeArm, 0, func(when sim.Cycles) { arrived = when })
	plat.Engine.Spawn("sender", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		_ = pt
		plat.SendIPI(th, mem.NodeArm, 0)
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 µs at the Arm node's 2 GHz = 4000 cycles + 100 send cost.
	if arrived != 4100 {
		t.Errorf("IPI arrival = %d, want 4100", arrived)
	}
	if plat.IPICount(mem.NodeArm) != 1 {
		t.Errorf("IPI count = %d", plat.IPICount(mem.NodeArm))
	}
}

func TestIPIWithoutHandlerIsAbsorbed(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	plat.Engine.Spawn("sender", 0, func(th *sim.Thread) {
		plat.SendIPI(th, mem.NodeArm, 3)
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeAdvancesOneCyclePerInstruction(t *testing.T) {
	plat := NewPlatform(DefaultConfig(mem.Separated))
	end := runOn(t, plat, mem.NodeX86, func(pt *Port) {
		w := NewCodeWindow(0x100000, 1024)
		pt.Compute(1000, w)
	})
	// 1000 instructions at IPC 1 plus ifetch costs; the loop footprint is
	// 1 KiB = 16 lines, so after the cold fetches everything hits L1I.
	if end < 1000 || end > 1000+16*400+1000 {
		t.Errorf("1000 instructions took %d cycles", end)
	}
	st := plat.Caches.Stats(mem.NodeX86)
	if st.L1IAccesses == 0 {
		t.Error("Compute issued no instruction fetches")
	}
	if st.MemAccesses != 0 {
		t.Error("Compute counted as data access")
	}
}

func TestCodeWindowWraps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		base     mem.PhysAddr
		size     uint64
		wantBase mem.PhysAddr
		wantSize uint64
	}{
		{"aligned", 0x1000, 128, 0x1000, 128},
		{"sub-line", 0x1000, 1, 0x1000, 64},
		{"empty", 0x1000, 0, 0x1000, 64},
		{"100-byte", 0x1000, 100, 0x1000, 128},
		{"unaligned base", 0x1030, 64, 0x1000, 128},
		{"unaligned base, one line", 0x1030, 16, 0x1000, 64},
		{"8 KiB + 1", 0x1000, 8<<10 + 1, 0x1000, 8<<10 + 64},
		{"task window", 0x1000, 8 << 10, 0x1000, 8 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewCodeWindow(tc.base, tc.size)
			if w.Base != tc.wantBase || w.Size != tc.wantSize {
				t.Fatalf("window = [%#x, +%d), want [%#x, +%d)", w.Base, w.Size, tc.wantBase, tc.wantSize)
			}
			lines := int(tc.wantSize / mem.LineSize)
			// Two laps: every fetch is a whole line of the window, in
			// order, and the walk wraps to Base after the last line.
			for i := 0; i < 2*lines; i++ {
				want := tc.wantBase + mem.PhysAddr(i%lines)*mem.LineSize
				if got := w.next(); got != want {
					t.Fatalf("fetch %d at %#x, want %#x", i, got, want)
				}
			}
			// advance is the hit run's step: k lines at once land where
			// k calls of next do, including exactly onto the wrap.
			w.advance(lines - 1)
			if got := w.next(); got != tc.wantBase+mem.PhysAddr(lines-1)*mem.LineSize {
				t.Errorf("after advance(%d): fetch at %#x", lines-1, got)
			}
			if got := w.next(); got != tc.wantBase {
				t.Errorf("after the last line: fetch at %#x, want Base", got)
			}
		})
	}
}

func TestClockDefaults(t *testing.T) {
	plat := NewPlatform(Config{Model: mem.Separated, Cache: DefaultConfig(mem.Separated).Cache})
	if plat.Clock(mem.NodeX86).Hz != 2_100_000_000 {
		t.Error("x86 clock default wrong")
	}
	if plat.Clock(mem.NodeArm).Hz != 2_000_000_000 {
		t.Error("arm clock default wrong")
	}
	if plat.Cfg.IPIMicros != 2.0 {
		t.Error("IPI default wrong")
	}
}
