package interconnect

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestSendBeyondRingCapacityPanics: RPC runs both ends on the caller's
// thread, so nothing drains the ring while Send is still enqueueing. A
// payload needing more fragments than the ring has slots must therefore
// fail up front instead of spinning on the full ring forever; one that
// needs exactly every slot must still go through. The host-time deadline
// turns a livelock into a failure instead of a hung test binary.
func TestSendBeyondRingCapacityPanics(t *testing.T) {
	run := func(fragments int) error {
		plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
		plat.Engine.Spawn("main", 0, func(th *sim.Thread) {
			pt := plat.NewPort(mem.NodeX86, 0, th)
			cfg := DefaultConfig(SHM, plat.Layout().SharedRegions()[0].Start)
			cfg.Slots = 4
			m := NewMessenger(cfg, plat, pt)
			req := make([]byte, fragments*m.rings[0].MaxPayload())
			m.RPC(pt, func(*hw.Port, []byte) []byte { return make([]byte, 16) }, req)
		})
		done := make(chan error, 1)
		go func() { done <- plat.Engine.Run() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("a %d-fragment RPC over a 4-slot ring did not finish within 10 s (livelock)", fragments)
			return nil
		}
	}
	if err := run(4); err != nil {
		t.Fatalf("a request filling the ring exactly failed: %v", err)
	}
	err := run(5)
	if err == nil || !strings.Contains(err.Error(), "exceeds ring capacity") {
		t.Fatalf("a request one slot past the ring returned %v, want a capacity panic", err)
	}
}

// pageRPC sets up a messenger and a page-sized RPC whose prebuilt handler
// reads a page of remote memory into the messenger's reply buffer, the
// shape of a DSM page fetch. It returns a function doing one round trip,
// after enough warm-up round trips that both rings have wrapped: a ring
// slot's memory frame is materialized the first time the ring writes it.
func pageRPC(pt *hw.Port, plat *hw.Platform) func() int {
	cfg := DefaultConfig(SHM, plat.Layout().SharedRegions()[0].Start)
	cfg.Slots = 8
	m := NewMessenger(cfg, plat, pt)
	const frame = mem.PhysAddr(6 << 30)
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i * 13)
	}
	pt.Write(frame, page)
	handler := func(remote *hw.Port, req []byte) []byte {
		resp := m.ReplyBuf(64 + mem.PageSize)
		remote.ReadInto(frame, resp[64:])
		return resp
	}
	req := make([]byte, 64)
	rpc := func() int { return len(m.RPC(pt, handler, req)) }
	for i := 0; i < cfg.Slots; i++ {
		rpc()
	}
	return rpc
}

// TestRPCPageZeroAllocs pins the messenger's byte movement: after warm-up,
// a page-sized RPC allocates nothing — fragments land in the messenger's
// receive buffer and the handler builds its response in the reply buffer.
func TestRPCPageZeroAllocs(t *testing.T) {
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	plat.Engine.Spawn("main", 0, func(th *sim.Thread) {
		rpc := pageRPC(plat.NewPort(mem.NodeX86, 0, th), plat)
		if n := rpc(); n != 64+mem.PageSize {
			t.Errorf("RPC returned %d bytes, want %d", n, 64+mem.PageSize)
		}
		if avg := testing.AllocsPerRun(50, func() { rpc() }); avg != 0 {
			t.Errorf("page-sized RPC allocates %.2f objects per round trip, want 0", avg)
		}
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRPCPage measures one page-sized SHM RPC round trip (request,
// handler reading a page into the reply, fragmented response). The
// contract is 0 allocs/op.
func BenchmarkRPCPage(b *testing.B) {
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	plat.Engine.Spawn("main", 0, func(th *sim.Thread) {
		rpc := pageRPC(plat.NewPort(mem.NodeX86, 0, th), plat)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rpc()
		}
	})
	if err := plat.Engine.Run(); err != nil {
		b.Fatal(err)
	}
}
