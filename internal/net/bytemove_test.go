package net

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestInterleavedLocalSenders: several tasks on one machine stream to their
// own listeners on another at once, with a quantum so small that every
// Transmit yields mid-forward, and RX rings so shallow that frames are
// retransmitted: while one task backs off holding a frame it pulled,
// another pulls the next frame off the shared TX ring. Every stream must
// arrive intact and in order, which holds only if no two in-flight
// transmits or polls share a wire buffer.
//
// The senders are stop-and-wait (each chunk, and the FIN, goes out only
// once the peer has consumed everything before it): a backoff can still
// let a later frame of the same connection overtake an earlier one that
// another task holds, an open fabric bug this test does not cover.
func TestInterleavedLocalSenders(t *testing.T) {
	const senders, streamLen, chunk = 4, 3000, 256
	ncfg := DefaultNICConfig()
	ncfg.Slots = senders // one TX slot per local sender; RX overruns
	tn := newTestNet(t, 2, ncfg, DefaultFabricConfig(), 0)
	tn.eng.Quantum = 64
	stream := func(i int) []byte {
		b := pattern(streamLen)
		for j := range b {
			b[j] ^= byte(31 * (i + 1))
		}
		return b
	}
	got := make([][]byte, senders)
	for i := 0; i < senders; i++ {
		port := uint16(80 + i)
		tn.eng.Spawn("server", 0, func(th *sim.Thread) {
			s := tn.stacks[1]
			pt := tn.plats[1].NewPort(mem.NodeX86, 0, th)
			l, err := s.Listen(port)
			if err != nil {
				panic(err)
			}
			tn.wait(s, pt, func() bool { return l.Pending() > 0 })
			c := l.TryAccept()
			got[i] = tn.recvN(s, c, pt, streamLen)
			c.Close(pt)
		})
		tn.eng.Spawn("client", 0, func(th *sim.Thread) {
			s := tn.stacks[0]
			pt := tn.plats[0].NewPort(mem.NodeX86, 0, th)
			c := s.Dial(pt, Addr{Mach: 1, Port: port})
			tn.wait(s, pt, func() bool { return c.State() == StateEstablished })
			msg := stream(i)
			for off := 0; off < len(msg); off += chunk {
				tn.sendAll(s, c, pt, msg[off:min(off+chunk, len(msg))])
				tn.wait(s, pt, func() bool { return c.peerConsumed == c.sent })
			}
			c.Close(pt)
			tn.wait(s, pt, func() bool { return c.State() == StateClosed })
		})
	}
	if err := tn.eng.Run(); err != nil {
		t.Fatalf("interleaved senders: %v", err)
	}
	for i := range got {
		if !bytes.Equal(got[i], stream(i)) {
			t.Errorf("stream %d corrupted or reordered: got %d bytes, want %d", i, len(got[i]), streamLen)
		}
	}
	for m := 0; m < 2; m++ {
		if tn.fab.NIC(m).Stats.Retransmits == 0 {
			t.Errorf("machine %d's interleaved senders never overran a shallow RX ring", m)
		}
	}
}

// transmitPoll sets up two machines with an established connection from
// machine 0 to machine 1 and returns a function that carries one DATA
// frame across the fabric and receives it on machine 1, draining the
// connection's receive buffer afterwards as an application would. Warm-up
// wraps both NIC rings first: a ring slot's memory frame is materialized
// the first time the ring writes it.
func transmitPoll(tn *testNet, th *sim.Thread) func() {
	src, dst := tn.stacks[0], tn.stacks[1]
	pt0 := tn.plats[0].NewPort(mem.NodeX86, 0, th)
	pt1 := tn.plats[1].NewPort(mem.NodeX86, 0, th)
	local, remote := Addr{Mach: 0, Port: 5000}, Addr{Mach: 1, Port: 80}
	c := &Conn{stack: dst, Local: remote, Remote: local, state: StateEstablished}
	dst.conns[connKey{remote.Port, local}] = c
	fr := &Frame{Kind: FrameDATA, Src: local, Dst: remote, Window: DefaultWindow, Payload: pattern(MTU)}
	step := func() {
		fr.Seq = c.recvd
		src.Fab.Transmit(pt0, fr)
		if dst.PollRx(pt1) != 1 || len(c.recvBuf) != MTU {
			panic("DATA frame not delivered")
		}
		c.recvBuf = c.recvBuf[:0]
	}
	for i := 0; i < 2*DefaultNICConfig().Slots; i++ {
		step()
	}
	return step
}

// TestTransmitPollRxZeroAllocs pins the NIC path's byte movement: in steady
// state, encoding a DATA frame, forwarding it through the switch, polling
// it off the RX ring and decoding it allocate nothing — the only copy is
// the payload's into the connection's receive buffer.
func TestTransmitPollRxZeroAllocs(t *testing.T) {
	tn := newTestNet(t, 2, DefaultNICConfig(), DefaultFabricConfig(), 0)
	tn.eng.Spawn("main", 0, func(th *sim.Thread) {
		step := transmitPoll(tn, th)
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("Transmit + PollRx of a DATA frame allocates %.2f objects, want 0", avg)
		}
	})
	if err := tn.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTransmitPollRx measures one MTU-sized DATA frame from a
// machine's transport through the switch into the peer's receive buffer.
// The contract is 0 allocs/op.
func BenchmarkTransmitPollRx(b *testing.B) {
	tn := newTestNet(b, 2, DefaultNICConfig(), DefaultFabricConfig(), 0)
	tn.eng.Spawn("main", 0, func(th *sim.Thread) {
		step := transmitPoll(tn, th)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	if err := tn.eng.Run(); err != nil {
		b.Fatal(err)
	}
}
