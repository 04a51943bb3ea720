package kernel

import (
	"fmt"
	"io"

	"repro/internal/cap"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Socket syscall costs: trap/return overhead in cycles and kernel
// instructions retired per syscall entry (the transport and NIC work is
// charged separately through the port and the fabric).
const (
	sockSyscallCost   sim.Cycles = 120
	kinstrSockSyscall            = 90
)

// sockFD is the kernel-side socket object a descriptor's Sock field points
// at: either a connection endpoint or a listener, never both.
type sockFD struct {
	conn *net.Conn
	ln   *net.Listener
}

// netStack returns the machine's transport endpoint on the cluster fabric.
func (t *Task) netStack() (*net.Stack, error) {
	if t.Ctx == nil || t.Ctx.Net == nil {
		return nil, fmt.Errorf("kernel: no network stack attached")
	}
	return t.Ctx.Net, nil
}

// enterSock charges one socket-syscall entry and resolves the stack.
func (t *Task) enterSock() (*net.Stack, error) {
	s, err := t.netStack()
	if err != nil {
		return nil, err
	}
	t.Th.Advance(sockSyscallCost)
	t.Stats.NodeInstructions[t.Node] += kinstrSockSyscall
	return s, nil
}

// fdSock resolves fd to a socket description, rejecting regular files and
// checking the descriptor's bound capability (the per-handle gate). The
// returned CapID is the handle capability (0 for root), which blocking
// syscalls register their waits under.
func (t *Task) fdSock(fd int) (*sockFD, cap.CapID, error) {
	f, err := t.FDs().Get(fd)
	if err != nil {
		return nil, 0, err
	}
	sk, ok := f.Sock.(*sockFD)
	if !ok {
		return nil, 0, fmt.Errorf("%w: fd %d is not a socket", vfs.ErrInvalid, fd)
	}
	if err := t.capCheckHandle(f.Cap, cap.Sock, "sock-fd"); err != nil {
		return nil, 0, err
	}
	return sk, f.Cap, nil
}

// installSock installs a socket descriptor bound to its handle capability.
func (t *Task) installSock(sk *sockFD, id cap.CapID) int {
	return t.FDs().Install(&vfs.File{Sock: sk, Cap: id})
}

// sockConn resolves fd to a connection endpoint, rejecting listeners.
func (t *Task) sockConn(fd int) (*net.Conn, cap.CapID, error) {
	sk, id, err := t.fdSock(fd)
	if err != nil {
		return nil, 0, err
	}
	if sk.conn == nil {
		return nil, 0, fmt.Errorf("%w: fd %d is a listening socket", vfs.ErrInvalid, fd)
	}
	return sk.conn, id, nil
}

// sockBlockBegin registers the task as blocked under its handle capability
// for the duration of a blocking socket syscall, so RevokeCap can cancel
// a mid-sleep waiter. sockBlockEnd deregisters and converts a delivered
// cancellation into the typed error. Both are free for root tasks.
func (t *Task) sockBlockBegin(id cap.CapID) {
	if t.Proc.Ten == nil {
		return
	}
	t.Ctx.capBlock(id, t)
}

func (t *Task) sockBlockEnd(id cap.CapID, op string) error {
	if t.Proc.Ten == nil {
		return nil
	}
	t.Ctx.capUnblock(id, t)
	cancelled := t.capCancel
	t.capCancel = false
	if cancelled {
		return &cap.CapError{Op: op, Tenant: t.Proc.Ten.Name, ID: id, Reason: cap.Revoked}
	}
	return nil
}

// sockWait blocks the task until cond holds, following the futex
// discipline: poll, check, register, poll, re-check, sleep. Wakers
// (doorbell IPI handlers, other tasks' PollRx) mutate transport state
// before Awaken, so the re-check after every wake-up absorbs both spurious
// and consumed wakes.
func (t *Task) sockWait(s *net.Stack, cond func() bool) {
	for {
		if t.capCancel {
			// A revocation cancelled this wait; the syscall's sockBlockEnd
			// turns the flag into the typed error.
			return
		}
		s.PollRx(t.Port)
		if cond() {
			return
		}
		s.AddWaiter(t)
		s.PollRx(t.Port)
		if cond() {
			s.RemoveWaiter(t)
			return
		}
		if t.capCancel {
			// Revoked between the registration and the sleep: the revoker
			// found the task not yet asleep and sent no wake, so back out
			// without sleeping.
			s.RemoveWaiter(t)
			return
		}
		t.sockSleeping = true
		t.Sleep("sock-wait")
		t.sockSleeping = false
		s.RemoveWaiter(t)
	}
}

// SocketListen opens a passive listener on port and returns its
// descriptor (socket+bind+listen collapsed: the simulated transport has no
// unbound socket state worth modelling).
func (t *Task) SocketListen(port uint16) (int, error) {
	s, err := t.enterSock()
	if err != nil {
		return -1, err
	}
	grant, err := t.capAuthorize(cap.Sock, "", "listen")
	if err != nil {
		return -1, err
	}
	l, err := s.Listen(port)
	if err != nil {
		return -1, err
	}
	id, err := t.deriveCap(grant, cap.Sock, fmt.Sprintf("listen:%d", port))
	if err != nil {
		return -1, err
	}
	return t.installSock(&sockFD{ln: l}, id), nil
}

// TrySocketAccept dequeues a handshake-complete connection from the
// listener, returning (-1, nil) when none is pending.
func (t *Task) TrySocketAccept(lfd int) (int, error) {
	s, err := t.enterSock()
	if err != nil {
		return -1, err
	}
	sk, lcap, err := t.fdSock(lfd)
	if err != nil {
		return -1, err
	}
	if sk.ln == nil {
		return -1, fmt.Errorf("%w: fd %d is not listening", vfs.ErrInvalid, lfd)
	}
	s.PollRx(t.Port)
	c := sk.ln.TryAccept()
	if c == nil {
		return -1, nil
	}
	id, err := t.deriveCap(lcap, cap.Sock, "accepted")
	if err != nil {
		return -1, err
	}
	return t.installSock(&sockFD{conn: c}, id), nil
}

// SocketAccept blocks until a connection completes its handshake on the
// listener and returns the new connection's descriptor.
func (t *Task) SocketAccept(lfd int) (int, error) {
	s, err := t.enterSock()
	if err != nil {
		return -1, err
	}
	sk, lcap, err := t.fdSock(lfd)
	if err != nil {
		return -1, err
	}
	if sk.ln == nil {
		return -1, fmt.Errorf("%w: fd %d is not listening", vfs.ErrInvalid, lfd)
	}
	t.sockBlockBegin(lcap)
	var c *net.Conn
	t.sockWait(s, func() bool {
		c = sk.ln.TryAccept()
		return c != nil
	})
	if err := t.sockBlockEnd(lcap, "accept"); err != nil {
		return -1, err
	}
	id, err := t.deriveCap(lcap, cap.Sock, "accepted")
	if err != nil {
		return -1, err
	}
	return t.installSock(&sockFD{conn: c}, id), nil
}

// SocketConnect actively opens a connection to a remote machine's port,
// blocking until the handshake completes.
func (t *Task) SocketConnect(to net.Addr) (int, error) {
	s, err := t.enterSock()
	if err != nil {
		return -1, err
	}
	grant, err := t.capAuthorize(cap.Sock, "", "connect")
	if err != nil {
		return -1, err
	}
	c := s.Dial(t.Port, to)
	t.sockBlockBegin(grant)
	t.sockWait(s, func() bool { return c.State() != net.StateSynSent })
	if err := t.sockBlockEnd(grant, "connect"); err != nil {
		return -1, err
	}
	if c.State() != net.StateEstablished {
		return -1, fmt.Errorf("kernel: connect to mach %d port %d failed (%v)",
			to.Mach, to.Port, c.State())
	}
	id, err := t.deriveCap(grant, cap.Sock, fmt.Sprintf("conn:%d", to.Port))
	if err != nil {
		return -1, err
	}
	return t.installSock(&sockFD{conn: c}, id), nil
}

// SendSock writes all of p to the connection, blocking on flow-control
// credit as needed. The RX ring is drained after every transmission burst
// so piggybacked ACKs (and the peer's own data) are consumed even by a
// task that only ever sends — the rule that keeps two mutually-flooding
// endpoints from deadlocking on each other's closed windows.
func (t *Task) SendSock(fd int, p []byte) (int, error) {
	s, err := t.enterSock()
	if err != nil {
		return 0, err
	}
	c, id, err := t.sockConn(fd)
	if err != nil {
		return 0, err
	}
	start := t.Th.Now()
	t.sockBlockBegin(id)
	sent := 0
	for sent < len(p) {
		n := c.TrySend(t.Port, p[sent:])
		sent += n
		s.PollRx(t.Port)
		if sent == len(p) || t.capCancel {
			break
		}
		if n == 0 {
			if c.State() != net.StateEstablished {
				_ = t.sockBlockEnd(id, "send") // transport error takes precedence
				return sent, fmt.Errorf("kernel: send on %v connection", c.State())
			}
			t.sockWait(s, func() bool {
				return c.Credit() > 0 || c.State() != net.StateEstablished
			})
		}
	}
	if err := t.sockBlockEnd(id, "send"); err != nil {
		return sent, err
	}
	t.Stats.SockSendBytes += int64(sent)
	t.emitSpan(trace.KindSockSend, start, 0, int64(sent))
	return sent, nil
}

// RecvSock reads up to max bytes from the connection, blocking until data
// arrives. io.EOF is returned once the peer has closed and every byte it
// sent has been consumed.
func (t *Task) RecvSock(fd int, max int) ([]byte, error) {
	s, err := t.enterSock()
	if err != nil {
		return nil, err
	}
	c, id, err := t.sockConn(fd)
	if err != nil {
		return nil, err
	}
	start := t.Th.Now()
	t.sockBlockBegin(id)
	t.sockWait(s, func() bool {
		return c.Buffered() > 0 || c.EOF() || c.State() == net.StateClosed
	})
	if err := t.sockBlockEnd(id, "recv"); err != nil {
		return nil, err
	}
	if c.Buffered() == 0 {
		return nil, io.EOF
	}
	out := c.RecvAppend(t.Port, nil, max)
	t.Stats.SockRecvBytes += int64(len(out))
	t.emitSpan(trace.KindSockRecv, start, 0, int64(len(out)))
	return out, nil
}

// TryRecvSock is the non-blocking read: it polls the NIC and appends
// whatever is buffered, up to max bytes, to dst. With nothing buffered it
// returns dst unchanged, and io.EOF at end-of-stream.
func (t *Task) TryRecvSock(fd int, dst []byte, max int) ([]byte, error) {
	s, err := t.enterSock()
	if err != nil {
		return dst, err
	}
	c, _, err := t.sockConn(fd)
	if err != nil {
		return dst, err
	}
	start := t.Th.Now()
	s.PollRx(t.Port)
	if c.Buffered() == 0 {
		if c.EOF() || c.State() == net.StateClosed {
			return dst, io.EOF
		}
		return dst, nil
	}
	out := c.RecvAppend(t.Port, dst, max)
	t.Stats.SockRecvBytes += int64(len(out) - len(dst))
	t.emitSpan(trace.KindSockRecv, start, 0, int64(len(out)-len(dst)))
	return out, nil
}

// CloseSock releases a socket descriptor: listeners are unregistered,
// connections send FIN. CloseFile routes socket descriptors here, so
// close(2) stays uniform across the table.
func (t *Task) CloseSock(fd int) error {
	s, err := t.enterSock()
	if err != nil {
		return err
	}
	sk, _, err := t.fdSock(fd)
	if err != nil {
		return err
	}
	if sk.ln != nil {
		sk.ln.Close()
	}
	if sk.conn != nil {
		sk.conn.Close(t.Port)
		// Drain frames already queued: the peer's FIN may be waiting, and
		// consuming it here lets a symmetric close tear down promptly.
		s.PollRx(t.Port)
	}
	return t.FDs().Close(fd)
}

// ClaimNet is the gate a socket-serving task (a server loop, a load
// generator) passes before it starts: the machine must have a stack, and a
// tenant must hold a Net capability, paying capCheckCost for the check.
func (t *Task) ClaimNet() error {
	if _, err := t.netStack(); err != nil {
		return err
	}
	_, err := t.capAuthorize(cap.Net, "", "claim-net")
	return err
}
