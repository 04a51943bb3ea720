package interconnect

import (
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Mode selects the inter-kernel message transport.
type Mode int

const (
	// SHM carries messages over shared-memory ring buffers with cross-ISA
	// IPI notification (Popcorn SHM / Stramash messaging, §6.2).
	SHM Mode = iota
	// TCP carries messages over a network path with SmartNIC-measured
	// round-trip latency (Popcorn TCP, §8.2: ~75 µs per round trip).
	TCP
)

func (m Mode) String() string {
	if m == SHM {
		return "SHM"
	}
	return "TCP"
}

// Stats are the messenger's counters, per sending node.
type Stats struct {
	MessagesSent [2]int64
	BytesSent    [2]int64
	Fragments    [2]int64
}

// TotalMessages returns the number of messages sent by both nodes.
func (s Stats) TotalMessages() int64 { return s.MessagesSent[0] + s.MessagesSent[1] }

// Config sizes the messenger.
type Config struct {
	Mode Mode
	// RingBase is the physical base of the messaging area (placed
	// per-hardware-model by the machine builder, §8.2). Two rings (one per
	// direction) are carved from it.
	RingBase mem.PhysAddr
	// Slots and SlotSize size each ring; the defaults carry one page per
	// slot like Popcorn's pcn_kmsg.
	Slots    int
	SlotSize int
	// NetRTTMicros is the full message round-trip latency for TCP mode.
	NetRTTMicros float64
}

// DefaultConfig returns a messenger configuration in the given mode with
// the messaging area at base.
func DefaultConfig(mode Mode, base mem.PhysAddr) Config {
	return Config{
		Mode:         mode,
		RingBase:     base,
		Slots:        256,
		SlotSize:     4096 + 64,
		NetRTTMicros: 75,
	}
}

// Messenger is the inter-kernel messaging layer between the two nodes.
type Messenger struct {
	cfg   Config
	plat  *hw.Platform
	rings [2]*Ring    // rings[src] carries src -> (1-src) traffic
	tcpq  [2][][]byte // tcpq[dst] buffers TCP messages host-side
	stats Stats
	// busy serializes whole message transactions (RPC round trips and
	// notifications) on the channel pair, like pcn_kmsg's per-channel
	// spinlock. Without it two simulated threads' transactions would
	// interleave their fragments on the same SPSC rings.
	busy bool
	// waiters are the threads parked in acquire.
	waiters sim.Waiters

	// Reused by every transaction: RecvAll's buffer, ReplyBuf's, and the
	// destination-side port. Only the transaction holding busy uses them.
	rx, reply []byte
	remote    hw.Port
}

// acquire spins (in simulated time, sim.Thread.SpinWhile) until the
// channel pair is free. The engine runs one simulated thread at a time, so
// the busy flag needs no host synchronization.
func (m *Messenger) acquire(pt *hw.Port) {
	pt.T.SpinWhile("lock:msg", &m.waiters, 150, func() bool { return m.busy })
	m.busy = true
}

func (m *Messenger) release() {
	m.waiters.Disturb()
	m.busy = false
}

// NewMessenger builds (and, for SHM, initializes in memory) the messaging
// layer. The init port is used only for the one-time ring setup.
func NewMessenger(cfg Config, plat *hw.Platform, initPt *hw.Port) *Messenger {
	if cfg.Slots == 0 {
		cfg.Slots = 256
	}
	if cfg.SlotSize == 0 {
		cfg.SlotSize = 4096 + 64
	}
	if cfg.NetRTTMicros == 0 {
		cfg.NetRTTMicros = 75
	}
	m := &Messenger{cfg: cfg, plat: plat}
	if cfg.Mode == SHM {
		r0 := NewRing(initPt, cfg.RingBase, cfg.Slots, cfg.SlotSize)
		r1 := NewRing(initPt, cfg.RingBase+mem.PhysAddr(r0.Bytes()+4096), cfg.Slots, cfg.SlotSize)
		m.rings[0], m.rings[1] = r0, r1
	}
	return m
}

// Mode returns the transport in use.
func (m *Messenger) Mode() Mode { return m.cfg.Mode }

// Stats returns a snapshot of the counters.
func (m *Messenger) Stats() Stats { return m.stats }

// ResetStats zeroes the counters.
func (m *Messenger) ResetStats() { m.stats = Stats{} }

// Send transmits payload from pt's node to the other node and charges the
// sender's clock with the transport cost. For SHM the cost is the ring
// buffer memory traffic (fragmenting page-plus-header payloads) plus an
// IPI; for TCP it is the stack cost plus half the round-trip. TCP queues
// payload itself, so it must stay unmodified until dequeued. An SHM payload
// larger than the whole ring panics: nothing drains it until Send returns.
// So does a full ring: every transaction starts with both rings empty and
// drains what it sent before it ends, so only a second undrained Send can
// fill one, and nothing would ever drain it.
func (m *Messenger) Send(pt *hw.Port, payload []byte) {
	src := pt.Node
	dst := mem.NodeID(1 - int(src))
	if r := m.rings[src]; m.cfg.Mode == SHM && len(payload) > r.Slots*r.MaxPayload() {
		panic(fmt.Sprintf("interconnect: payload %d exceeds ring capacity %d", len(payload), r.Slots*r.MaxPayload()))
	}
	m.stats.MessagesSent[src]++
	m.stats.BytesSent[src] += int64(len(payload))
	if tr := m.plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindMsgSend,
			Node: int8(src), Core: int16(pt.Core), Tid: int32(pt.T.ID),
			Arg: int64(len(payload))})
	}

	switch m.cfg.Mode {
	case SHM:
		ring := m.rings[src]
		off := 0
		for {
			end := off + ring.MaxPayload()
			if end > len(payload) {
				end = len(payload)
			}
			if off > 0 {
				m.stats.Fragments[src]++
			}
			if !ring.Send(pt, payload[off:end]) {
				panic(fmt.Sprintf("interconnect: node %v ring full: a Send that nothing drained", src))
			}
			if end >= len(payload) {
				break
			}
			off = end
		}
		m.plat.SendIPI(pt.T, dst, 0)
	case TCP:
		// Kernel TCP stack: syscall + copies + NIC DMA, then wire time.
		const perByteCycles = 0.4
		pt.T.Advance(sim.Cycles(float64(len(payload))*perByteCycles) + 4000)
		pt.T.Advance(m.plat.Clock(src).FromMicros(m.cfg.NetRTTMicros / 2))
		m.tcpq[dst] = append(m.tcpq[dst], payload)
	default:
		panic(fmt.Sprintf("interconnect: unknown mode %v", m.cfg.Mode))
	}
}

// Recv dequeues the oldest pending message addressed to pt's node; ok is
// false when none is pending. Receive costs (ring memory traffic or stack
// copies) are charged to the receiver. SHM fragments are not reassembled
// here — Recv returns one ring slot per call; RPC-level framing reassembles.
func (m *Messenger) Recv(pt *hw.Port) ([]byte, bool) {
	dst := pt.Node
	switch m.cfg.Mode {
	case SHM:
		src := mem.NodeID(1 - int(dst))
		return m.rings[src].Recv(pt)
	case TCP:
		q := &m.tcpq[dst]
		if len(*q) == 0 {
			return nil, false
		}
		msg := (*q)[0]
		*q = (*q)[1:]
		const perByteCycles = 0.4
		pt.T.Advance(sim.Cycles(float64(len(msg))*perByteCycles) + 4000)
		return msg, true
	}
	return nil, false
}

// RecvAll drains the full payload of one logical SHM message that Send may
// have fragmented: it keeps receiving until total bytes have arrived.
// Callers know message sizes from their protocol. Both ends of a
// transaction run on the caller's thread, so the whole message is in the
// ring before RecvAll starts: a ring that empties short of total panics
// instead of waiting for bytes nothing will send. The result is the
// messenger's reused buffer, valid until the next RecvAll.
func (m *Messenger) RecvAll(pt *hw.Port, total int) []byte {
	out := m.rx[:0]
	for len(out) < total {
		var ok bool
		if out, ok = m.rings[1-pt.Node].RecvAppend(pt, out); !ok {
			panic(fmt.Sprintf("interconnect: node %v ring empty after %d of %d bytes", pt.Node, len(out), total))
		}
	}
	m.rx = out
	return out
}

// ReplyBuf returns a zeroed n-byte buffer the messenger owns and reuses,
// for an RPC handler to build its response in.
func (m *Messenger) ReplyBuf(n int) []byte {
	m.reply = slices.Grow(m.reply[:0], n)[:n]
	clear(m.reply)
	return m.reply
}

// RPC performs a synchronous request/response round trip from the caller's
// node to the other node, as multiple-kernel OS services do: the request is
// sent over the transport, the remote service routine runs (its memory
// traffic charged against the remote node's caches, since the caller blocks
// for exactly that long), and the response travels back. The caller's
// simulated clock absorbs the full round trip. Counts as two messages. The
// response returned is valid until the messenger's next transaction.
func (m *Messenger) RPC(pt *hw.Port, handler func(remote *hw.Port, req []byte) []byte, req []byte) []byte {
	m.acquire(pt)
	defer m.release()
	rpcStart := pt.T.Now()
	defer func() {
		if tr := m.plat.Tracer; tr != nil {
			tr.Emit(trace.Event{Cycle: int64(rpcStart), Kind: trace.KindRPC,
				Node: int8(pt.Node), Core: int16(pt.Core), Tid: int32(pt.T.ID),
				Arg: int64(len(req)), Cost: int64(pt.T.Now() - rpcStart)})
		}
	}()
	m.Send(pt, req)

	// Delivery latency for the request to be noticed by the remote kernel.
	dst := mem.NodeID(1 - int(pt.Node))
	pt.T.Advance(m.plat.Clock(pt.Node).FromMicros(m.plat.Cfg.IPIMicros))

	// The remote service routine executes while the caller blocks; charge
	// its work on the caller's timeline but against the remote node's
	// caches by running it through a port bound to the remote node.
	m.remote = hw.Port{Plat: m.plat, Node: dst, T: pt.T}
	remotePt := &m.remote
	var reqCopy []byte
	if m.cfg.Mode == SHM {
		// Drain our own fragments from the ring on the remote side.
		reqCopy = m.RecvAll(remotePt, len(req))
	} else {
		reqCopy, _ = m.Recv(remotePt)
	}
	resp := handler(remotePt, reqCopy)

	m.Send(remotePt, resp)
	pt.T.Advance(m.plat.Clock(dst).FromMicros(m.plat.Cfg.IPIMicros))
	if m.cfg.Mode == SHM {
		return m.RecvAll(pt, len(resp))
	}
	got, _ := m.Recv(pt)
	return got
}

// Notify sends a one-way message that the destination kernel's interrupt
// handler consumes immediately (the receive cost runs on the caller's
// timeline against the destination's caches, like the RPC service path).
// Unlike a bare Send, the message cannot rot in the ring.
func (m *Messenger) Notify(pt *hw.Port, payload []byte) {
	m.acquire(pt)
	defer m.release()
	notifyStart := pt.T.Now()
	defer func() {
		if tr := m.plat.Tracer; tr != nil {
			tr.Emit(trace.Event{Cycle: int64(notifyStart), Kind: trace.KindNotify,
				Node: int8(pt.Node), Core: int16(pt.Core), Tid: int32(pt.T.ID),
				Arg: int64(len(payload)), Cost: int64(pt.T.Now() - notifyStart)})
		}
	}()
	m.Send(pt, payload)
	dst := mem.NodeID(1 - int(pt.Node))
	pt.T.Advance(m.plat.Clock(pt.Node).FromMicros(m.plat.Cfg.IPIMicros))
	m.remote = hw.Port{Plat: m.plat, Node: dst, T: pt.T}
	remotePt := &m.remote
	if m.cfg.Mode == SHM {
		m.RecvAll(remotePt, len(payload))
		return
	}
	m.Recv(remotePt)
}
