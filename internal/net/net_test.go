package net

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
)

// --- frame codec ---

func sampleFrames() []*Frame {
	return []*Frame{
		{Kind: FrameSYN, Src: Addr{0, 49152}, Dst: Addr{1, 80}, Window: 65536},
		{Kind: FrameSYNACK, Src: Addr{1, 80}, Dst: Addr{0, 49152}, Window: 32768},
		{Kind: FrameACK, Src: Addr{0, 49152}, Dst: Addr{1, 80}, Ack: 1234, Window: 65536},
		{Kind: FrameDATA, Src: Addr{3, 7}, Dst: Addr{2, 9}, Seq: 99, Ack: 12, Window: 1,
			Payload: []byte("hello over the fabric")},
		{Kind: FrameDATA, Src: Addr{65535, 65535}, Dst: Addr{0, 0}, Seq: 1<<32 - 1,
			Payload: bytes.Repeat([]byte{0xAB}, MTU)},
		{Kind: FrameFIN, Src: Addr{0, 49152}, Dst: Addr{1, 80}, Ack: 500, Window: 65536},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, f := range sampleFrames() {
		wire := EncodeFrame(f)
		got, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("frame %d: round trip mismatch:\n got %+v\nwant %+v", i, got, f)
		}
	}
}

func TestFrameDecodeRejectsGarbage(t *testing.T) {
	good := EncodeFrame(&Frame{Kind: FrameDATA, Src: Addr{0, 1}, Dst: Addr{1, 2}, Payload: []byte("xy")})
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     good[:HeaderBytes-1],
		"zero kind":        append([]byte{0}, good[1:]...),
		"huge kind":        append([]byte{200}, good[1:]...),
		"truncated body":   good[:len(good)-1],
		"trailing bytes":   append(append([]byte(nil), good...), 0xFF),
		"plen beyond MTU":  func() []byte { b := append([]byte(nil), good...); b[21] = 0xFF; b[22] = 0xFF; return b }(),
		"plen over frame":  func() []byte { b := append([]byte(nil), good...); b[21] = 3; return b }(),
		"plen under frame": func() []byte { b := append([]byte(nil), good...); b[21] = 1; return b }(),
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decode accepted corrupt frame", name)
		}
	}
}

// --- cluster harness: N bare platforms on one shared engine ---

type testNet struct {
	eng    *sim.Engine
	fab    *Fabric
	plats  []*hw.Platform
	stacks []*Stack
}

const testNICBase = mem.PhysAddr(8 << 20)

func newTestNet(t *testing.T, machines int, ncfg NICConfig, fcfg FabricConfig, window uint32) *testNet {
	t.Helper()
	tn := &testNet{eng: sim.NewEngine(), fab: NewFabric(fcfg)}
	tn.stacks = make([]*Stack, machines)
	for i := 0; i < machines; i++ {
		cfg := hw.DefaultConfig(mem.Separated)
		cfg.Engine = tn.eng
		tn.plats = append(tn.plats, hw.NewPlatform(cfg))
	}
	tn.eng.Spawn("net-boot", 0, func(th *sim.Thread) {
		for i, plat := range tn.plats {
			pt := plat.NewPort(mem.NodeX86, 0, th)
			nic := NewNIC(pt, i, testNICBase, ncfg)
			tn.fab.Attach(nic)
			tn.stacks[i] = NewStack(nic, tn.fab, window)
		}
	})
	if err := tn.eng.Run(); err != nil {
		t.Fatalf("net boot: %v", err)
	}
	return tn
}

// threadWaiter adapts a bare sim thread to the stack's Waiter interface.
type threadWaiter struct {
	eng *sim.Engine
	th  *sim.Thread
}

func (w *threadWaiter) Awaken(when sim.Cycles) { w.eng.Wake(w.th, when) }

// wait blocks pt's thread until cond holds, following the stack's waiter
// discipline (register, poll, re-check, sleep).
func (tn *testNet) wait(s *Stack, pt *hw.Port, cond func() bool) {
	th := pt.T
	w := &threadWaiter{eng: tn.eng, th: th}
	for {
		s.PollRx(pt)
		if cond() {
			return
		}
		s.AddWaiter(w)
		s.PollRx(pt)
		if cond() {
			s.RemoveWaiter(w)
			return
		}
		th.Block("net-wait")
		s.RemoveWaiter(w)
	}
}

// sendAll pushes payload through c, polling and waiting for credit.
func (tn *testNet) sendAll(s *Stack, c *Conn, pt *hw.Port, payload []byte) {
	for sent := 0; sent < len(payload); {
		n := c.TrySend(pt, payload[sent:])
		sent += n
		s.PollRx(pt) // drain ACKs promptly so credit keeps flowing
		if sent < len(payload) && n == 0 {
			tn.wait(s, pt, func() bool { return c.Credit() > 0 })
		}
	}
}

// recvN collects exactly n bytes from c.
func (tn *testNet) recvN(s *Stack, c *Conn, pt *hw.Port, n int) []byte {
	var out []byte
	for len(out) < n {
		tn.wait(s, pt, func() bool { return c.Buffered() > 0 || c.EOF() })
		if c.EOF() {
			break
		}
		out = append(out, c.TryRecv(pt, n-len(out))...)
	}
	return out
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// runEcho wires an echo server on machine 1 and a client on machine 0,
// pushes msgBytes through and back, closes both sides, and returns the
// echoed bytes (plus the simulation end time via the engine).
func runEcho(t *testing.T, tn *testNet, msgBytes int) []byte {
	t.Helper()
	var echoed []byte
	tn.eng.Spawn("server", 0, func(th *sim.Thread) {
		s := tn.stacks[1]
		pt := tn.plats[1].NewPort(mem.NodeX86, 0, th)
		l, err := s.Listen(80)
		if err != nil {
			panic(err)
		}
		tn.wait(s, pt, func() bool { return l.Pending() > 0 })
		c := l.TryAccept()
		for {
			tn.wait(s, pt, func() bool { return c.Buffered() > 0 || c.EOF() })
			if c.EOF() {
				break
			}
			chunk := c.TryRecv(pt, 4096)
			tn.sendAll(s, c, pt, chunk)
		}
		c.Close(pt)
		l.Close()
	})
	tn.eng.Spawn("client", 0, func(th *sim.Thread) {
		s := tn.stacks[0]
		pt := tn.plats[0].NewPort(mem.NodeX86, 0, th)
		c := s.Dial(pt, Addr{Mach: 1, Port: 80})
		tn.wait(s, pt, func() bool { return c.State() == StateEstablished })
		msg := pattern(msgBytes)
		tn.sendAll(s, c, pt, msg)
		echoed = tn.recvN(s, c, pt, len(msg))
		c.Close(pt)
		tn.wait(s, pt, func() bool { return c.State() == StateClosed })
	})
	if err := tn.eng.Run(); err != nil {
		t.Fatalf("echo run: %v", err)
	}
	return echoed
}

func TestTwoMachineEcho(t *testing.T) {
	tn := newTestNet(t, 2, DefaultNICConfig(), DefaultFabricConfig(), 0)
	msg := pattern(8000)
	echoed := runEcho(t, tn, len(msg))
	if !bytes.Equal(echoed, msg) {
		t.Fatalf("echo corrupted: got %d bytes, want %d", len(echoed), len(msg))
	}
	for i, s := range tn.stacks {
		if s.Conns() != 0 {
			t.Errorf("machine %d leaked %d connections", i, s.Conns())
		}
		st := s.NIC.Stats
		if st.TxFrames == 0 || st.RxFrames == 0 || st.Doorbells != st.TxFrames {
			t.Errorf("machine %d stats implausible: %+v", i, st)
		}
		if st.RxOccHW < 1 {
			t.Errorf("machine %d RX occupancy high-water never moved", i)
		}
	}
	if tn.eng.MaxTime() == 0 {
		t.Error("echo consumed no simulated time")
	}
}

func TestFlowControlWindow(t *testing.T) {
	const window = 512
	tn := newTestNet(t, 2, DefaultNICConfig(), DefaultFabricConfig(), window)
	var got []byte
	blocked := 0
	tn.eng.Spawn("server", 0, func(th *sim.Thread) {
		s := tn.stacks[1]
		pt := tn.plats[1].NewPort(mem.NodeX86, 0, th)
		l, _ := s.Listen(80)
		tn.wait(s, pt, func() bool { return l.Pending() > 0 })
		c := l.TryAccept()
		for !c.EOF() {
			tn.wait(s, pt, func() bool { return c.Buffered() > 0 || c.EOF() })
			// Consume deliberately slowly: tiny reads keep the window tight.
			got = append(got, c.TryRecv(pt, 64)...)
		}
		c.Close(pt)
	})
	tn.eng.Spawn("client", 0, func(th *sim.Thread) {
		s := tn.stacks[0]
		pt := tn.plats[0].NewPort(mem.NodeX86, 0, th)
		c := s.Dial(pt, Addr{Mach: 1, Port: 80})
		tn.wait(s, pt, func() bool { return c.State() == StateEstablished })
		msg := pattern(4096)
		for sent := 0; sent < len(msg); {
			n := c.TrySend(pt, msg[sent:])
			if n == 0 {
				blocked++
				tn.wait(s, pt, func() bool { return c.Credit() > 0 })
				continue
			}
			sent += n
			s.PollRx(pt)
		}
		c.Close(pt)
		tn.wait(s, pt, func() bool { return c.State() == StateClosed })
	})
	if err := tn.eng.Run(); err != nil {
		t.Fatalf("flow control run: %v", err)
	}
	if !bytes.Equal(got, pattern(4096)) {
		t.Fatalf("data corrupted under tight window: got %d bytes", len(got))
	}
	if blocked == 0 {
		t.Error("a 512-byte window never exhausted the sender's credit")
	}
}

func TestRetransmitOnFullRing(t *testing.T) {
	ncfg := DefaultNICConfig()
	ncfg.Slots = 2 // tiny RX ring: the flood below must overrun it
	tn := newTestNet(t, 2, ncfg, DefaultFabricConfig(), 0)
	const frames, frameLen = 40, 64
	var got []byte
	tn.eng.Spawn("server", 0, func(th *sim.Thread) {
		s := tn.stacks[1]
		pt := tn.plats[1].NewPort(mem.NodeX86, 0, th)
		l, _ := s.Listen(80)
		tn.wait(s, pt, func() bool { return l.Pending() > 0 })
		c := l.TryAccept()
		for len(got) < frames*frameLen {
			tn.wait(s, pt, func() bool { return c.Buffered() > 0 })
			got = append(got, c.TryRecv(pt, frames*frameLen)...)
		}
		c.Close(pt)
	})
	tn.eng.Spawn("client", 0, func(th *sim.Thread) {
		s := tn.stacks[0]
		pt := tn.plats[0].NewPort(mem.NodeX86, 0, th)
		c := s.Dial(pt, Addr{Mach: 1, Port: 80})
		tn.wait(s, pt, func() bool { return c.State() == StateEstablished })
		msg := pattern(frames * frameLen)
		for i := 0; i < frames; i++ {
			tn.sendAll(s, c, pt, msg[i*frameLen:(i+1)*frameLen])
		}
		c.Close(pt)
		tn.wait(s, pt, func() bool { return c.State() == StateClosed })
	})
	if err := tn.eng.Run(); err != nil {
		t.Fatalf("retransmit run: %v", err)
	}
	if !bytes.Equal(got, pattern(frames*frameLen)) {
		t.Fatalf("data corrupted across retransmits: got %d bytes", len(got))
	}
	if tn.fab.NIC(0).Stats.Retransmits == 0 {
		t.Error("a 2-slot RX ring never forced a retransmit")
	}
	if hw := tn.fab.NIC(1).Stats.RxOccHW; hw != 2 {
		t.Errorf("RX occupancy high-water = %d, want the full ring (2)", hw)
	}
}

// echoFingerprint runs the echo scenario on a fresh fabric and returns a
// digest of everything observable: end time, payload, and NIC counters.
func echoFingerprint(t *testing.T) string {
	t.Helper()
	tn := newTestNet(t, 2, DefaultNICConfig(), DefaultFabricConfig(), 0)
	echoed := runEcho(t, tn, 6000)
	return fmt.Sprintf("end=%d payload=%x nic0=%+v nic1=%+v",
		tn.eng.MaxTime(), echoed, tn.fab.NIC(0).Stats, tn.fab.NIC(1).Stats)
}

// TestEchoDeterministicAcrossEngines: the same two-machine exchange, each
// run on a fresh engine, must be bit-identical run to run and at
// GOMAXPROCS 1, 2 and 8 — the yield points on the transport's shared rings
// fix its cross-thread order, not the host scheduler.
func TestEchoDeterministicAcrossEngines(t *testing.T) {
	want := echoFingerprint(t)
	if again := echoFingerprint(t); again != want {
		t.Fatalf("runs diverged:\n%s\n%s", want, again)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := echoFingerprint(t); got != want {
			t.Fatalf("GOMAXPROCS=%d diverged:\n%s\n%s", procs, want, got)
		}
	}
}
