package net

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Waiter is anything that can be woken when the stack makes progress: a
// kernel task blocked in a socket syscall, or a bare test thread. Awaken
// must be wake-beats-sleep safe (the engine's Wake semantics are).
type Waiter interface {
	Awaken(when sim.Cycles)
}

// ConnState is the TCP-lite connection state.
type ConnState uint8

const (
	// StateSynSent: active open, SYN transmitted, awaiting SYNACK.
	StateSynSent ConnState = iota + 1
	// StateSynRcvd: passive open, SYNACK transmitted, awaiting ACK.
	StateSynRcvd
	// StateEstablished: handshake complete, data may flow.
	StateEstablished
	// StateClosed: both directions shut.
	StateClosed
)

func (s ConnState) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("ConnState(%d)", uint8(s))
}

// connKey names a connection uniquely within one stack: the local port plus
// the full remote address.
type connKey struct {
	localPort uint16
	remote    Addr
}

// Conn is one TCP-lite connection endpoint. All methods are non-blocking
// (Try* semantics): they poll simulated state and return what is possible
// now. Blocking loops — wait for establishment, for credit, for data —
// belong to the caller (the kernel's socket syscalls, or a test harness),
// built from AddWaiter + PollRx + sleep.
type Conn struct {
	stack *Stack
	// Local and Remote address the two endpoints.
	Local, Remote Addr

	state   ConnState
	recvBuf []byte
	// recvd is the stream offset we expect next from the peer (cumulative
	// bytes received in order).
	recvd uint32
	// consumed is the cumulative bytes the application has taken out of
	// recvBuf; lastAck is the last consumed value advertised to the peer.
	consumed uint32
	lastAck  uint32
	// sent is the cumulative bytes we have transmitted; peerConsumed and
	// peerWindow are the peer's flow-control state (credit = peerWindow -
	// (sent - peerConsumed)).
	sent         uint32
	peerConsumed uint32
	peerWindow   uint32

	recvFIN bool
	sentFIN bool
}

// Listener accepts passive opens on one port.
type Listener struct {
	stack *Stack
	// Port is the listening port.
	Port uint16
	// pending holds handshake-complete connections awaiting Accept, in
	// arrival order.
	pending []*Conn
}

// Stack is one machine's transport endpoint: the connection table, the
// listener table, and the receive-poll loop over the machine's NIC.
type Stack struct {
	// Mach is this machine's fabric index.
	Mach int
	NIC  *NIC
	Fab  *Fabric
	// Window is the receive window granted to every peer, in bytes; it
	// bounds recvBuf growth and is the sender's credit pool.
	Window uint32

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	waiters   []Waiter
}

// DefaultWindow is the per-connection receive window.
const DefaultWindow = 64 * 1024

// ephemeralBase is the first ephemeral port for active opens.
const ephemeralBase = 49152

// NewStack builds the transport endpoint for nic on fab and installs the
// NIC's doorbell IPI handler: frame arrival wakes every registered waiter
// at the IPI delivery time.
func NewStack(nic *NIC, fab *Fabric, window uint32) *Stack {
	if window == 0 {
		window = DefaultWindow
	}
	s := &Stack{
		Mach:      nic.Mach,
		NIC:       nic,
		Fab:       fab,
		Window:    window,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  ephemeralBase,
	}
	nic.Plat.RegisterIPIHandler(nic.IRQNode, nic.IRQCore, func(when sim.Cycles) {
		s.WakeAll(when)
	})
	return s
}

// AddWaiter registers w for wake-up on stack progress. Callers follow the
// futex discipline: register, poll, re-check the predicate, then sleep —
// the engine's pending-wake semantics absorb the wake-beats-sleep race.
func (s *Stack) AddWaiter(w Waiter) {
	for _, x := range s.waiters {
		if x == w {
			return
		}
	}
	s.waiters = append(s.waiters, w)
}

// RemoveWaiter deregisters w.
func (s *Stack) RemoveWaiter(w Waiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// WakeAll awakens every registered waiter at simulated time when, in
// registration order (deterministic; spurious wakes are absorbed by the
// callers' retry loops).
func (s *Stack) WakeAll(when sim.Cycles) {
	if len(s.waiters) == 0 {
		return
	}
	ws := append([]Waiter(nil), s.waiters...)
	for _, w := range ws {
		w.Awaken(when)
	}
}

// Listen opens a passive listener on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("net: machine %d port %d already listening", s.Mach, port)
	}
	l := &Listener{stack: s, Port: port}
	s.listeners[port] = l
	return l, nil
}

// Close removes the listener. Pending connections are dropped.
func (l *Listener) Close() {
	delete(l.stack.listeners, l.Port)
	l.pending = nil
}

// TryAccept dequeues the oldest handshake-complete connection, or nil.
func (l *Listener) TryAccept() *Conn {
	if len(l.pending) == 0 {
		return nil
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c
}

// Pending returns the accept-queue depth.
func (l *Listener) Pending() int { return len(l.pending) }

// Dial starts an active open to remote: it allocates an ephemeral local
// port, registers the connection, and transmits the SYN. The returned
// connection is in StateSynSent; the caller polls (PollRx) until it
// reaches StateEstablished.
func (s *Stack) Dial(pt *hw.Port, remote Addr) *Conn {
	port := s.allocPort(remote)
	c := &Conn{
		stack:  s,
		Local:  Addr{Mach: s.Mach, Port: port},
		Remote: remote,
		state:  StateSynSent,
	}
	s.conns[connKey{port, remote}] = c
	s.send(pt, c, &Frame{Kind: FrameSYN})
	return c
}

func (s *Stack) allocPort(remote Addr) uint16 {
	for i := 0; i < 1<<16-ephemeralBase; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = ephemeralBase
		}
		if _, used := s.conns[connKey{p, remote}]; !used {
			return p
		}
	}
	panic(fmt.Sprintf("net: machine %d out of ephemeral ports to %v", s.Mach, remote))
}

// send fills in the frame's addressing and piggyback fields from c and
// transmits it. Every frame advertises our window and acknowledges our
// cumulative consumption, so explicit ACKs are only needed when no other
// traffic flows.
func (s *Stack) send(pt *hw.Port, c *Conn, f *Frame) {
	f.Src = c.Local
	f.Dst = c.Remote
	f.Ack = c.consumed
	f.Window = s.Window
	c.lastAck = c.consumed
	s.Fab.Transmit(pt, f)
}

// PollRx drains the NIC RX ring, dispatching every frame into the
// connection and listener tables. It returns the number of frames
// processed and wakes all waiters if there were any, at the polling
// thread's current time.
func (s *Stack) PollRx(pt *hw.Port) int {
	t := pt.T
	n := 0
	for {
		// Atomic like the fabric's enqueues: two local tasks may poll the
		// same ring, and a mid-dequeue quantum yield would dispatch one
		// frame twice.
		t.BeginAtomic()
		wire, ok := s.NIC.RX.Recv(pt)
		t.EndAtomic()
		if !ok {
			break
		}
		s.NIC.noteRxDrained()
		f, err := DecodeFrame(wire)
		if err != nil {
			// A corrupt frame is dropped at the device boundary, exactly
			// like a bad checksum.
			continue
		}
		s.dispatch(pt, f)
		n++
	}
	if n > 0 {
		s.WakeAll(t.Now())
	}
	return n
}

// dispatch applies one received frame to transport state. In-order,
// no-loss delivery is guaranteed by the synchronous fabric, so sequence
// gaps are invariant violations rather than recoverable wire conditions.
func (s *Stack) dispatch(pt *hw.Port, f *Frame) {
	if f.Dst.Mach != s.Mach {
		panic(fmt.Sprintf("net: machine %d received frame for %v", s.Mach, f.Dst))
	}
	if f.Kind == FrameSYN {
		l := s.listeners[f.Dst.Port]
		if l == nil {
			return // connection refused: SYN to a dead port is dropped
		}
		key := connKey{f.Dst.Port, f.Src}
		if _, dup := s.conns[key]; dup {
			return
		}
		c := &Conn{
			stack:      s,
			Local:      Addr{Mach: s.Mach, Port: f.Dst.Port},
			Remote:     f.Src,
			state:      StateSynRcvd,
			peerWindow: f.Window,
		}
		s.conns[key] = c
		s.send(pt, c, &Frame{Kind: FrameSYNACK})
		return
	}

	c := s.conns[connKey{f.Dst.Port, f.Src}]
	if c == nil {
		return // late frame for a forgotten connection
	}
	// Piggybacked flow-control state rides on every frame.
	if f.Ack > c.peerConsumed {
		c.peerConsumed = f.Ack
	}
	if f.Window > 0 {
		c.peerWindow = f.Window
	}

	switch f.Kind {
	case FrameSYNACK:
		if c.state == StateSynSent {
			c.state = StateEstablished
			s.send(pt, c, &Frame{Kind: FrameACK})
		}
	case FrameACK:
		if c.state == StateSynRcvd {
			c.state = StateEstablished
			if l := s.listeners[c.Local.Port]; l != nil {
				l.pending = append(l.pending, c)
			}
		}
	case FrameDATA:
		if f.Seq != c.recvd {
			panic(fmt.Sprintf("net: %v<-%v out-of-order seq %d, expected %d",
				c.Local, c.Remote, f.Seq, c.recvd))
		}
		if uint32(len(c.recvBuf)+len(f.Payload)) > s.Window {
			panic(fmt.Sprintf("net: %v<-%v peer overran the %d-byte window", c.Local, c.Remote, s.Window))
		}
		c.recvBuf = append(c.recvBuf, f.Payload...)
		c.recvd += uint32(len(f.Payload))
	case FrameFIN:
		c.recvFIN = true
		if c.sentFIN {
			c.teardown()
		}
	}
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// Buffered returns the bytes received and not yet consumed.
func (c *Conn) Buffered() int { return len(c.recvBuf) }

// EOF reports that the peer has closed its direction and every byte it
// sent has been consumed.
func (c *Conn) EOF() bool { return c.recvFIN && len(c.recvBuf) == 0 }

// Credit returns the flow-control budget: bytes we may still send before
// the peer must consume and acknowledge.
func (c *Conn) Credit() uint32 {
	inflight := c.sent - c.peerConsumed
	if inflight >= c.peerWindow {
		return 0
	}
	return c.peerWindow - inflight
}

// TrySend transmits as much of payload as current credit allows, in
// MTU-sized frames, and returns the number of bytes sent. Zero means the
// window is closed (or the connection is not established); the caller
// waits for an ACK and retries.
func (c *Conn) TrySend(pt *hw.Port, payload []byte) int {
	if c.state != StateEstablished || c.sentFIN {
		return 0
	}
	sent := 0
	for sent < len(payload) {
		chunk := len(payload) - sent
		if chunk > MTU {
			chunk = MTU
		}
		credit := int(c.Credit())
		if credit == 0 {
			break
		}
		if chunk > credit {
			chunk = credit
		}
		f := &Frame{Kind: FrameDATA, Seq: c.sent, Payload: payload[sent : sent+chunk]}
		c.stack.send(pt, c, f)
		c.sent += uint32(chunk)
		sent += chunk
	}
	return sent
}

// TryRecv consumes up to max buffered bytes. An explicit ACK is sent when
// the unacknowledged consumption grows past a quarter window or the buffer
// fully drains — enough to guarantee a credit-blocked sender always
// unblocks; finer-grained acknowledgment piggybacks on data frames.
func (c *Conn) TryRecv(pt *hw.Port, max int) []byte {
	if len(c.recvBuf) == 0 || max <= 0 {
		return nil
	}
	n := len(c.recvBuf)
	if n > max {
		n = max
	}
	out := append([]byte(nil), c.recvBuf[:n]...)
	c.recvBuf = c.recvBuf[n:]
	c.consumed += uint32(n)
	if c.state == StateEstablished &&
		(len(c.recvBuf) == 0 || c.consumed-c.lastAck >= c.stack.Window/4) {
		c.stack.send(pt, c, &Frame{Kind: FrameACK})
	}
	return out
}

// Close shuts our sending direction (FIN). The connection is torn down
// once both directions are shut; receiving remains possible until then.
func (c *Conn) Close(pt *hw.Port) {
	if c.sentFIN || c.state == StateClosed {
		return
	}
	if c.state == StateEstablished || c.state == StateSynRcvd {
		c.stack.send(pt, c, &Frame{Kind: FrameFIN})
	}
	c.sentFIN = true
	if c.recvFIN || c.state != StateEstablished {
		c.teardown()
	}
}

// teardown finalizes the connection and frees its table slot.
func (c *Conn) teardown() {
	c.state = StateClosed
	delete(c.stack.conns, connKey{c.Local.Port, c.Remote})
}

// Conns returns the number of live connections (diagnostics).
func (s *Stack) Conns() int { return len(s.conns) }
