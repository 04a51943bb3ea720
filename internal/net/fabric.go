package net

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FabricConfig parameterizes the switch joining the machines of a cluster.
type FabricConfig struct {
	// SwitchCycles is the fixed store-and-forward latency the switch adds
	// per frame, in cycles of the sending node's clock.
	SwitchCycles sim.Cycles
	// BytesPerCycle is the switch port bandwidth; forwarding a frame
	// occupies the switch for SwitchCycles + wireBytes/BytesPerCycle.
	BytesPerCycle int
	// DoorbellCycles is the cost of the MMIO doorbell write that hands a
	// TX descriptor to the NIC.
	DoorbellCycles sim.Cycles
	// RetryBackoff is the initial wait before re-sending a frame the
	// destination RX ring rejected; it doubles per attempt (capped).
	RetryBackoff sim.Cycles
	// MaxRetries bounds re-send attempts before the fabric declares the
	// receiver dead (a simulation bug, reported by panic).
	MaxRetries int
}

// DefaultFabricConfig returns the evaluation switch: ~0.25 µs base
// forwarding latency at 2.1 GHz, 4 wire bytes per cycle (~67 Gb/s), and an
// initial retry backoff of half the IPI delivery latency.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{
		SwitchCycles:   500,
		BytesPerCycle:  4,
		DoorbellCycles: 200,
		RetryBackoff:   2048,
		MaxRetries:     64,
	}
}

// Fabric is the cluster switch: every machine's NIC attaches to one port,
// and frames are forwarded store-and-forward with deterministic
// arbitration. The switch is sender-synchronous, like the interconnect
// messenger's Notify: the sending thread itself carries the frame from its
// TX ring through the switch into the destination RX ring on its own
// timeline, so arbitration order is a function of simulated time only.
type Fabric struct {
	Cfg  FabricConfig
	nics []*NIC

	// busyUntil is the simulated time the switch finishes its current
	// forward. Host-side state is legal here because the engine runs one
	// simulated thread at a time, in an order defined by simulated clocks.
	busyUntil sim.Cycles
}

// NewFabric returns an empty switch.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.SwitchCycles == 0 {
		cfg = DefaultFabricConfig()
	}
	if cfg.BytesPerCycle <= 0 {
		cfg.BytesPerCycle = 4
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 64
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2048
	}
	return &Fabric{Cfg: cfg}
}

// Attach connects a NIC to the next switch port. NICs must attach in
// machine order.
func (f *Fabric) Attach(n *NIC) {
	if n.Mach != len(f.nics) {
		panic(fmt.Sprintf("net: NIC for machine %d attached at port %d", n.Mach, len(f.nics)))
	}
	f.nics = append(f.nics, n)
}

// NIC returns the NIC attached for machine mach.
func (f *Fabric) NIC(mach int) *NIC { return f.nics[mach] }

// Machines returns the number of attached NICs.
func (f *Fabric) Machines() int { return len(f.nics) }

// Lookahead is the fabric's conservative lookahead: the minimum simulated
// delay between a sender committing a frame (the doorbell write) and that
// frame being visible in any destination RX ring — doorbell plus switch
// store-and-forward of an empty frame: the lower bound the switch promises
// every machine. The timing tests pin it so transport changes cannot
// silently shrink the cross-machine latency the experiments assume.
func (f *Fabric) Lookahead() sim.Cycles {
	return f.Cfg.DoorbellCycles + f.Cfg.SwitchCycles +
		sim.Cycles(HeaderBytes/f.Cfg.BytesPerCycle)
}

// acquire waits until the switch is idle at the calling thread's clock.
// Re-checking after every yield makes arbitration deterministic: among
// contending threads the engine always resumes the smallest (clock, ID)
// first, and that thread claims the switch before the others re-check.
func (f *Fabric) acquire(t *sim.Thread) {
	for t.Now() < f.busyUntil {
		t.AdvanceTo(f.busyUntil)
		t.YieldPoint()
	}
}

// Transmit carries one frame from its source machine's TX ring to its
// destination machine's RX ring and rings the destination doorbell IPI.
// pt must be a port on the source machine. The call is synchronous — when
// it returns the frame is in the destination ring — which is what makes
// delivery per-connection FIFO and therefore the transport trivially
// in-order. A full destination ring drops the frame and re-sends it after
// a backoff (counted as a retransmit), so delivery is also reliable.
func (f *Fabric) Transmit(pt *hw.Port, fr *Frame) {
	t := pt.T
	if fr.Src.Mach >= len(f.nics) || fr.Dst.Mach >= len(f.nics) {
		panic(fmt.Sprintf("net: transmit %v -> %v on a %d-machine fabric", fr.Src, fr.Dst, len(f.nics)))
	}
	src, dst := f.nics[fr.Src.Mach], f.nics[fr.Dst.Mach]
	if src.Plat != pt.Plat {
		panic(fmt.Sprintf("net: transmit for machine %d issued from a foreign machine's port", fr.Src.Mach))
	}
	wire := EncodeFrame(fr)

	// Produce into the local TX ring and ring the TX doorbell. The switch
	// drains synchronously below, so a full TX ring is an invariant
	// violation, not a wire condition. The enqueue is atomic: a descriptor
	// post is one DMA transaction, and a quantum yield between the head
	// read and the head publish would let a concurrent producer double-book
	// the slot.
	t.BeginAtomic()
	okTX := src.TX.Send(pt, wire)
	t.EndAtomic()
	if !okTX {
		panic(fmt.Sprintf("net: machine %d TX ring full under synchronous switch", src.Mach))
	}
	src.Stats.TxFrames++
	src.Stats.TxBytes += int64(len(wire))
	src.Stats.Doorbells++
	t.Advance(f.Cfg.DoorbellCycles)
	if tr := pt.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Now()), Kind: trace.KindNICDoorbell,
			Node: int8(src.IRQNode), Core: int16(src.IRQCore), Tid: int32(t.ID),
			Arg: int64(dst.Mach), Cost: int64(len(wire))})
	}

	// Arbitrate for the switch, then occupy it for the store-and-forward
	// duration. busyUntil is claimed before the Advance so a quantum yield
	// mid-forward cannot let another sender double-book the port.
	f.acquire(t)
	occ := f.Cfg.SwitchCycles + sim.Cycles(len(wire)/f.Cfg.BytesPerCycle)
	f.busyUntil = t.Now() + occ
	t.Advance(occ)

	// The switch pulls the frame off the TX ring (descriptor DMA, charged
	// to the source machine's memory; atomic for the same reason the
	// enqueue is) ...
	t.BeginAtomic()
	pulled, ok := src.TX.Recv(pt)
	t.EndAtomic()
	if !ok {
		panic(fmt.Sprintf("net: machine %d TX ring empty at forward time", src.Mach))
	}
	// The TX ring is FIFO per machine: when two local senders interleave,
	// this thread may have pulled the other sender's frame. Routing comes
	// from the pulled frame's own header, so every frame still reaches its
	// destination exactly once, whichever thread carries it.
	pf, perr := DecodeFrame(pulled)
	if perr != nil {
		panic(fmt.Sprintf("net: machine %d TX ring held an undecodable frame: %v", src.Mach, perr))
	}
	dst = f.nics[pf.Dst.Mach]

	// ... and pushes it into the destination RX ring through a port on the
	// destination platform, still on the sender's timeline (the Notify
	// idiom). Each attempt is atomic — two sender machines produce into the
	// same RX ring, and a mid-enqueue quantum yield would lose a frame. A
	// full RX ring means the receiver has not kept up: drop the frame, wake
	// the receiver so it drains, back off, and re-send.
	dpt := dst.Plat.NewPort(dst.IRQNode, dst.IRQCore, t)
	backoff := f.Cfg.RetryBackoff
	for try := 0; ; try++ {
		t.BeginAtomic()
		okRX := dst.RX.Send(dpt, pulled)
		t.EndAtomic()
		if okRX {
			break
		}
		src.Stats.Retransmits++
		if tr := pt.Plat.Tracer; tr != nil {
			tr.Emit(trace.Event{Cycle: int64(t.Now()), Kind: trace.KindNetRetransmit,
				Node: int8(src.IRQNode), Core: int16(src.IRQCore), Tid: int32(t.ID),
				Arg: int64(dst.Mach), Cost: int64(len(pulled))})
		}
		if try >= f.Cfg.MaxRetries {
			panic(fmt.Sprintf("net: machine %d RX ring still full after %d retransmits (receiver dead?)",
				dst.Mach, try))
		}
		dst.Plat.SendIPI(t, dst.IRQNode, dst.IRQCore)
		t.Advance(backoff)
		t.YieldPoint()
		if backoff < 1<<16 {
			backoff *= 2
		}
	}
	dst.noteRxEnqueued(len(pulled))

	// Frame-arrival doorbell on the destination machine.
	dst.Plat.SendIPI(t, dst.IRQNode, dst.IRQCore)
}
