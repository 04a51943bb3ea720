package machine

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/net"
)

// clusterEcho boots a two-machine cluster, runs a server task on machine 1
// that echoes a byte stream back over kernel socket syscalls, and a client
// task on machine 0 that sends nbytes and reads them back. It returns the
// echoed payload and a fingerprint of everything determinism must pin:
// task completion cycles, payload bytes, and both NICs' counters.
func clusterEcho(t *testing.T, os OSKind, model mem.Model, nbytes int) ([]byte, string) {
	t.Helper()
	cfg := Config{Model: model, OS: os}
	cl, err := NewCluster([]Config{cfg, cfg}, net.DefaultFabricConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}

	payload := make([]byte, nbytes)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	var got []byte
	rs, err := cl.RunTasks(
		ClusterTask{Mach: 1, TaskSpec: TaskSpec{
			Name: "server", Origin: mem.NodeX86,
			Body: func(tk *kernel.Task) error {
				lfd, err := tk.SocketListen(80)
				if err != nil {
					return err
				}
				cfd, err := tk.SocketAccept(lfd)
				if err != nil {
					return err
				}
				for {
					p, err := tk.RecvSock(cfd, 512)
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					if _, err := tk.SendSock(cfd, p); err != nil {
						return err
					}
				}
				// close(2) on a socket descriptor routes to the transport.
				if err := tk.CloseFile(cfd); err != nil {
					return err
				}
				return tk.CloseSock(lfd)
			},
		}},
		ClusterTask{Mach: 0, TaskSpec: TaskSpec{
			Name: "client", Origin: mem.NodeArm,
			Body: func(tk *kernel.Task) error {
				fd, err := tk.SocketConnect(net.Addr{Mach: 1, Port: 80})
				if err != nil {
					return err
				}
				if _, err := tk.SendSock(fd, payload); err != nil {
					return err
				}
				for len(got) < nbytes {
					p, err := tk.RecvSock(fd, 4096)
					if err != nil {
						return err
					}
					got = append(got, p...)
				}
				return tk.CloseSock(fd)
			},
		}},
	)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	fp := fmt.Sprintf("server=%d client=%d payload=%x nic0=%+v nic1=%+v",
		rs[0].End, rs[1].End, got, cl.NICStats(0), cl.NICStats(1))
	return got, fp
}

// TestClusterEchoKernelSockets is the end-to-end tentpole check: bytes flow
// client -> NIC ring -> switch -> server NIC ring -> doorbell IPI -> socket
// syscalls and back, across two fused-OS machines.
func TestClusterEchoKernelSockets(t *testing.T) {
	const n = 6000
	got, _ := clusterEcho(t, StramashOS, mem.Shared, n)
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("echo corrupted: got %d bytes, first diff at %d", len(got), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestClusterFusedPopcornDifferential runs the same traffic on fused and
// multiple-kernel clusters: the transported content must be identical (the
// network stack sits above the OS personality), while the personalities
// remain free to differ in cycle counts.
func TestClusterFusedPopcornDifferential(t *testing.T) {
	const n = 3000
	fused, _ := clusterEcho(t, StramashOS, mem.Shared, n)
	pop, _ := clusterEcho(t, PopcornSHM, mem.Separated, n)
	if !bytes.Equal(fused, pop) {
		t.Fatalf("fused and popcorn clusters transported different bytes (first diff %d)",
			firstDiff(fused, pop))
	}
}

// TestClusterEngineByteIdentity pins the determinism contract: the same
// cluster run twice, then again at GOMAXPROCS 1, 2 and 8, produces
// byte-identical results — cycle counts, payload, and NIC counters.
func TestClusterEngineByteIdentity(t *testing.T) {
	const n = 4000
	_, base := clusterEcho(t, StramashOS, mem.Shared, n)
	_, again := clusterEcho(t, StramashOS, mem.Shared, n)
	if base != again {
		t.Fatalf("cluster run not reproducible:\n%s\nvs\n%s", base, again)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if _, got := clusterEcho(t, StramashOS, mem.Shared, n); got != base {
			t.Fatalf("GOMAXPROCS=%d diverged:\n%s\nvs\n%s", procs, got, base)
		}
	}
}
