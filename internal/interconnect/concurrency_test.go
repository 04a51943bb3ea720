package interconnect

import (
	"encoding/binary"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestConcurrentRPCsDoNotInterleave(t *testing.T) {
	// Two simulated threads fire RPCs with distinct payloads concurrently;
	// the channel lock must keep each transaction intact (no crossed
	// fragments, no stolen responses).
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	var m *Messenger
	plat.Engine.Spawn("boot", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		m = NewMessenger(DefaultConfig(SHM, plat.Layout().SharedRegions()[0].Start), plat, pt)
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	const perThread = 20
	for id := 0; id < 2; id++ {
		id := id
		plat.Engine.Spawn("rpc", 0, func(th *sim.Thread) {
			pt := plat.NewPort(mem.NodeX86, 0, th)
			for i := 0; i < perThread; i++ {
				// Payload bigger than one slot to force fragmentation.
				req := make([]byte, 6000)
				binary.LittleEndian.PutUint32(req, uint32(id*1000+i))
				for j := 8; j < len(req); j++ {
					req[j] = byte(id*31 + i)
				}
				resp := m.RPC(pt, func(remote *hw.Port, r []byte) []byte {
					// Echo the request back, also fragmented.
					out := make([]byte, len(r))
					copy(out, r)
					return out
				}, req)
				if len(resp) != len(req) {
					t.Errorf("thread %d rpc %d: resp len %d", id, i, len(resp))
					return
				}
				if binary.LittleEndian.Uint32(resp) != uint32(id*1000+i) {
					t.Errorf("thread %d rpc %d: got tag %d", id, i, binary.LittleEndian.Uint32(resp))
					return
				}
				for j := 8; j < len(resp); j++ {
					if resp[j] != byte(id*31+i) {
						t.Errorf("thread %d rpc %d: corrupted byte %d", id, i, j)
						return
					}
				}
			}
		})
	}
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNotifyDrainsRing(t *testing.T) {
	// Hundreds of notifications must not fill the ring (each is consumed
	// by the destination's interrupt handler).
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	plat.Engine.Spawn("main", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		m := NewMessenger(DefaultConfig(SHM, plat.Layout().SharedRegions()[0].Start), plat, pt)
		for i := 0; i < 1000; i++ { // far beyond the 256-slot capacity
			m.Notify(pt, make([]byte, 64))
		}
		arm := plat.NewPort(mem.NodeArm, 0, th)
		if _, ok := m.Recv(arm); ok {
			t.Error("ring not empty after notifications")
		}
	})
	if err := plat.Engine.Run(); err != nil {
		t.Fatal(err)
	}
}
