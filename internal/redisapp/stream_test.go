package redisapp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
)

// streamBP is the keyspace the stream tests' servers pre-populate.
var streamBP = BenchParams{PayloadBytes: 64, Keys: 8}

// serveProdWith runs ServeProd with pp on machine 0 of a cluster, with
// pp.Cores cores per node, and each client task on a machine of its own (concurrent
// senders on one machine can reorder a connection's frames, ROADMAP item
// 10). It returns the cluster run's error.
func serveProdWith(pp ProdParams, clients ...func(tk *kernel.Task) error) error {
	cfgs := []machine.Config{{Model: mem.Shared, OS: machine.StramashOS,
		Cores: max(pp.Cores, 1), Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000}}
	pp.PayloadBytes, pp.Keys = streamBP.PayloadBytes, streamBP.Keys
	specs := []machine.ClusterTask{{Mach: 0, TaskSpec: machine.TaskSpec{
		Name: "server", Origin: mem.NodeX86, KeepAlive: true,
		Body: func(tk *kernel.Task) error { _, err := ServeProd(tk, pp); return err },
	}}}
	for i, body := range clients {
		cfgs = append(cfgs, machine.Config{Model: mem.Shared, OS: machine.StramashOS})
		specs = append(specs, machine.ClusterTask{Mach: i + 1, TaskSpec: machine.TaskSpec{
			Name: fmt.Sprintf("client%d", i), Origin: mem.NodeX86, KeepAlive: true, Start: 2000, Body: body,
		}})
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		return err
	}
	_, err = cl.RunTasks(specs...)
	return err
}

// serverAddr is where serveProdWith's server listens.
var serverAddr = net.Addr{Mach: 0, Port: 6379}

// recvResponses reads from fd until n complete responses have arrived and
// returns their bytes.
func recvResponses(tk *kernel.Task, fd, n int) ([]byte, error) {
	var got []byte
	for done, off := 0, 0; done < n; {
		p, err := tk.RecvSock(fd, 4096)
		if err != nil {
			return got, err
		}
		got = append(got, p...)
		for {
			_, _, rest, ok, err := decodeResponse(got[off:])
			if err != nil {
				return got, err
			}
			if !ok {
				break
			}
			off = len(got) - len(rest)
			done++
		}
	}
	return got, nil
}

// TestServeProdClientClosesMidRequest: a client that closes with part of
// a request in the server's reassembly buffer fails the serve loop, in the
// single-task server and with workers, instead of leaving it polling for
// a request that can never complete. (A client that leaves cleanly with
// fewer than Expected requests sent still leaves the server waiting.)
func TestServeProdClientClosesMidRequest(t *testing.T) {
	for _, cores := range []int{0, 1} {
		done := make(chan error, 1)
		go func() {
			done <- serveProdWith(ProdParams{Expected: 3, Cores: cores}, func(tk *kernel.Task) error {
				fd, err := tk.SocketConnect(serverAddr)
				if err != nil {
					return err
				}
				get := appendRequest(nil, CmdGet, keyFor(streamBP, 1), nil)
				batch := append(append(append([]byte(nil), get...), get...), get[:3]...)
				if _, err := tk.SendSock(fd, batch); err != nil {
					return err
				}
				if _, err := recvResponses(tk, fd, 2); err != nil {
					return err
				}
				return tk.CloseSock(fd)
			})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "closed with 0 requests in flight and 3 bytes of a partial request") {
				t.Errorf("cores=%d: serve error %v, want the 3 buffered bytes named", cores, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("cores=%d: server still polling 30 s of host time after its client closed", cores)
		}
	}
}

// streamBatch is client c's pipelined batch on its own keys: a SET and a
// GET per value size — 0 and 1 bytes, sizes that straddle the MTU and the
// server's 4,096-byte receive max — each followed by a GET of one of three
// hot pre-populated keys, then one miss. want is the response stream.
func streamBatch(c int) (batch, want []byte, n int) {
	for i, size := range []int{0, 1, net.MTU - 1, net.MTU + 1, 4095, 4097} {
		key := []byte(fmt.Sprintf("c%d:%d", c, i))
		val := bytes.Repeat([]byte{byte(c*16 + i + 1)}, size)
		batch = appendRequest(batch, CmdSet, key, val)
		batch = appendRequest(batch, CmdGet, key, nil)
		batch = appendRequest(batch, CmdGet, keyFor(streamBP, i%3), nil)
		want = appendResponse(want, 1, nil)
		want = appendResponse(want, 1, val)
		want = appendResponse(want, 1, valFor(streamBP, i%3))
		n += 3
	}
	batch = appendRequest(batch, CmdGet, []byte(fmt.Sprintf("c%d:missing", c)), nil)
	return batch, appendResponse(want, 0, nil), n + 1
}

// TestServeProdSplitAndCoalescedStreams sends each client's batch in 1-,
// 7- and 1,500-byte SendSock pieces and in one write, all four clients at
// once on their own connections, and requires every client's response
// bytes to equal the stream its batch asks for — so a split batch reads
// exactly what a one-write batch reads. It runs the single-task server
// and both keyspace regimes with workers; the hot keys put concurrent
// GETs on different workers, which a value or response buffer shared
// between workers or connections would corrupt.
func TestServeProdSplitAndCoalescedStreams(t *testing.T) {
	pieces := []int{1, 7, 1500, 0} // 0: one write
	for _, pp := range []ProdParams{{Cores: 0}, {Cores: 2, Kind: KSSharded}, {Cores: 2, Kind: KSLocked}} {
		got := make([][]byte, len(pieces))
		clients := make([]func(tk *kernel.Task) error, len(pieces))
		for c, piece := range pieces {
			clients[c] = func(tk *kernel.Task) error {
				fd, err := tk.SocketConnect(serverAddr)
				if err != nil {
					return err
				}
				batch, _, n := streamBatch(c)
				if piece == 0 {
					piece = len(batch)
				}
				for off := 0; off < len(batch); off += piece {
					if _, err := tk.SendSock(fd, batch[off:min(off+piece, len(batch))]); err != nil {
						return err
					}
				}
				if got[c], err = recvResponses(tk, fd, n); err != nil {
					return err
				}
				return tk.CloseSock(fd)
			}
		}
		_, _, n := streamBatch(0)
		pp.Expected = n * len(pieces)
		if err := serveProdWith(pp, clients...); err != nil {
			t.Fatalf("cores=%d %v: %v", pp.Cores, pp.Kind, err)
		}
		for c, piece := range pieces {
			if _, want, _ := streamBatch(c); !bytes.Equal(got[c], want) {
				t.Errorf("cores=%d %v, %d-byte pieces: %d response bytes differ from the %d expected",
					pp.Cores, pp.Kind, piece, len(got[c]), len(want))
			}
		}
	}
}
