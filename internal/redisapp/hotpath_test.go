package redisapp

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
)

// sockPair connects a task on machine 0 to one on machine 1 and runs body
// on machine 0's thread with both ends: once the machine 1 task has
// accepted and its thread has finished, it is rebound to machine 0's
// thread, so one loop drives both ends of the stream without a thread
// switch.
func sockPair(tb testing.TB, body func(tk *kernel.Task, fd int, peer *kernel.Task, pfd int) error) {
	tb.Helper()
	cl, err := machine.NewCluster([]machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS}, {Model: mem.Shared, OS: machine.StramashOS},
	}, net.DefaultFabricConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var srv *kernel.Task
	sfd := -1
	_, err = cl.RunTasks(
		machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{Name: "server", Origin: mem.NodeX86, KeepAlive: true,
			Body: func(tk *kernel.Task) error {
				lfd, err := tk.SocketListen(80)
				if err != nil {
					return err
				}
				sfd, err = tk.SocketAccept(lfd)
				srv = tk
				return err
			},
		}},
		machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{Name: "client", Origin: mem.NodeX86, KeepAlive: true, Start: 2000,
			Body: func(tk *kernel.Task) error {
				fd, err := tk.SocketConnect(net.Addr{Mach: 1, Port: 80})
				if err != nil {
					return err
				}
				for srv == nil {
					tk.Th.Advance(1000)
					tk.Th.YieldPoint()
				}
				srv.Th, srv.Port = tk.Th, srv.Ctx.Plat.NewPort(srv.Node, srv.Core, tk.Th)
				return body(tk, fd, srv, sfd)
			},
		}},
	)
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSockSendTryRecv is one 64-byte message through SendSock on one
// machine and TryRecvSock on the other, into a buffer with room. The
// contract is 0 allocs/op.
func BenchmarkSockSendTryRecv(b *testing.B) {
	sockPair(b, func(tk *kernel.Task, fd int, peer *kernel.Task, pfd int) error {
		msg, buf := make([]byte, 64), make([]byte, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := peer.SendSock(pfd, msg); err != nil {
				return err
			}
			var err error
			if buf, err = tk.TryRecvSock(fd, buf[:0], 64); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestTryRecvSockZeroAllocs pins the receive syscall's byte movement: in
// steady state, a message sent and received into a buffer with room
// allocates nothing on either side.
func TestTryRecvSockZeroAllocs(t *testing.T) {
	sockPair(t, func(tk *kernel.Task, fd int, peer *kernel.Task, pfd int) error {
		msg, buf := make([]byte, 64), make([]byte, 0, 64)
		for i := range msg {
			msg[i] = byte(i + 1)
		}
		var err error
		step := func() {
			if _, err = peer.SendSock(pfd, msg); err == nil {
				buf, err = tk.TryRecvSock(fd, buf[:0], 64)
			}
		}
		for i := 0; i < 1000 && err == nil; i++ { // past the first quarter-window ACK
			step()
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("SendSock + TryRecvSock of 64 bytes allocates %.2f times per message, want 0", avg)
		}
		if err == nil && string(buf) != string(msg) {
			t.Errorf("received %x, want %x", buf, msg)
		}
		return err
	})
}

// warmKeyspaces runs body on one task with a sharded and a locked
// keyspace, each holding key with a 256-byte value.
func warmKeyspaces(tb testing.TB, body func(tk *kernel.Task, kss map[string]Keyspace, key []byte) error) {
	tb.Helper()
	m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
	if err != nil {
		tb.Fatal(err)
	}
	_, err = m.RunSingle("store", mem.NodeX86, func(tk *kernel.Task) error {
		sharded, err := buildKeyspace(tk, KSSharded, 2)
		if err != nil {
			return err
		}
		locked, err := buildKeyspace(tk, KSLocked, 2)
		if err != nil {
			return err
		}
		kss := map[string]Keyspace{"sharded": sharded, "locked": locked}
		key := []byte("key:000001")
		for _, ks := range kss {
			if _, _, err := ks.Exec(tk, 0, nil, CmdSet, key, make([]byte, 256)); err != nil {
				return err
			}
		}
		return body(tk, kss, key)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkExecGetHit is one GET hit of a 256-byte value through each
// keyspace regime's Exec into a warm destination. The contract is 0
// allocs/op.
func BenchmarkExecGetHit(b *testing.B) {
	warmKeyspaces(b, func(tk *kernel.Task, kss map[string]Keyspace, key []byte) error {
		for _, name := range []string{"sharded", "locked"} {
			b.Run(name, func(b *testing.B) {
				dst := make([]byte, 0, 256)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst, _, _ = kss[name].Exec(tk, 0, dst[:0], CmdGet, key, nil)
				}
			})
		}
		return nil
	})
}

// TestExecGetHitZeroAllocs pins the GET path — routing by derived key,
// stripe locks, the chain walk's key compare and the value read — to
// zero host allocations once the destination has room.
func TestExecGetHitZeroAllocs(t *testing.T) {
	warmKeyspaces(t, func(tk *kernel.Task, kss map[string]Keyspace, key []byte) error {
		for name, ks := range kss {
			var miss int
			dst := make([]byte, 0, 256)
			if avg := testing.AllocsPerRun(100, func() { dst, miss, _ = ks.Exec(tk, 0, dst[:0], CmdGet, key, nil) }); avg != 0 {
				t.Errorf("%s: GET hit allocates %.2f times per call, want 0", name, avg)
			}
			if miss != 0 || len(dst) != 256 {
				t.Errorf("%s: GET returned miss=%d and %d bytes, want a 256-byte hit", name, miss, len(dst))
			}
		}
		return nil
	})
}
