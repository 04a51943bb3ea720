package redisapp

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Stream wire format over TCP-lite sockets: requests reuse the RESP-lite
// layout cmd(1)|klen(4)|vlen(4)|key|val; responses are
// status(1)|plen(4)|payload (status 1 = ok, 0 = miss). Both sides decode
// from a reassembly buffer, so requests may arrive split or coalesced
// across frames.
const (
	respHdr = 5
	// maxNetKey and maxNetVal bound the attacker-controlled length fields
	// in the stream decoder; anything larger is a protocol error, not an
	// allocation.
	maxNetKey = 512
	maxNetVal = 8192
)

// encodeRequest serializes one command for the socket path.
func encodeRequest(cmd Command, key, val []byte) []byte {
	b := make([]byte, reqHdr+len(key)+len(val))
	b[0] = byte(cmd)
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[5:9], uint32(len(val)))
	copy(b[reqHdr:], key)
	copy(b[reqHdr+len(key):], val)
	return b
}

// decodeRequest pulls one complete request off the front of buf. ok=false
// with a nil error means more bytes are needed; a bounds violation in the
// header is a protocol error.
func decodeRequest(buf []byte) (cmd Command, key, val, rest []byte, ok bool, err error) {
	if len(buf) < reqHdr {
		return 0, nil, nil, buf, false, nil
	}
	cmd = Command(buf[0])
	klen := int(binary.LittleEndian.Uint32(buf[1:5]))
	vlen := int(binary.LittleEndian.Uint32(buf[5:9]))
	if cmd < CmdGet || cmd > CmdMSet || klen <= 0 || klen > maxNetKey || vlen < 0 || vlen > maxNetVal {
		return 0, nil, nil, buf, false,
			fmt.Errorf("redisapp: corrupt stream request (cmd=%d klen=%d vlen=%d)", cmd, klen, vlen)
	}
	if len(buf) < reqHdr+klen+vlen {
		return 0, nil, nil, buf, false, nil
	}
	key = buf[reqHdr : reqHdr+klen]
	val = buf[reqHdr+klen : reqHdr+klen+vlen]
	return cmd, key, val, buf[reqHdr+klen+vlen:], true, nil
}

// encodeResponse serializes one response.
func encodeResponse(status byte, payload []byte) []byte {
	b := make([]byte, respHdr+len(payload))
	b[0] = status
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(payload)))
	copy(b[respHdr:], payload)
	return b
}

// decodeResponse pulls one complete response off the front of buf,
// mirroring decodeRequest.
func decodeResponse(buf []byte) (status byte, payload, rest []byte, ok bool, err error) {
	if len(buf) < respHdr {
		return 0, nil, buf, false, nil
	}
	status = buf[0]
	plen := int(binary.LittleEndian.Uint32(buf[1:5]))
	if status > 1 || plen < 0 || plen > maxNetVal {
		return 0, nil, buf, false,
			fmt.Errorf("redisapp: corrupt stream response (status=%d plen=%d)", status, plen)
	}
	if len(buf) < respHdr+plen {
		return 0, nil, buf, false, nil
	}
	return status, buf[respHdr : respHdr+plen], buf[respHdr+plen:], true, nil
}

// NetServerParams configures one socket-serving server task.
type NetServerParams struct {
	// Port is the listening port.
	Port uint16
	// Expected is the number of requests to serve before closing.
	Expected int
	// PayloadBytes and Keys size the pre-populated keyspace (matching the
	// generator's deterministic key/value functions).
	PayloadBytes int
	Keys         int
	// Migrate serves from the remote ISA after populating at the origin
	// (the paper's time_event scenario, like the ring-based server).
	Migrate bool
	// ExtraCompute is added application work per request, in instructions
	// (0 = none). It models request bodies heavier than pure store lookups
	// and gives cluster benchmarks a per-machine compute component.
	ExtraCompute int64
}

// NetServerStats reports one server task's work.
type NetServerStats struct {
	// Served counts completed requests; Misses counts GET/POP on empty.
	Served int
	Misses int
	// ServeCycles is the simulated time from the first poll to the last
	// response (the populate phase is excluded, like BeginTimed).
	ServeCycles sim.Cycles
}

// ServeNet runs one miniature-Redis server over kernel socket syscalls:
// listen first (so early SYNs queue in the RX ring while the store
// populates), pre-populate the keyspace, optionally migrate to the remote
// ISA, then serve exactly Expected requests across however many
// connections arrive, and close. The accept/receive loop is non-blocking
// round-robin over connections, so one pipelined load-balancer connection
// and many per-client connections behave the same.
func ServeNet(t *kernel.Task, p NetServerParams) (NetServerStats, error) {
	var st NetServerStats
	if err := t.ClaimNet(); err != nil {
		return st, err
	}
	lfd, err := t.SocketListen(p.Port)
	if err != nil {
		return st, err
	}

	bp := BenchParams{PayloadBytes: p.PayloadBytes, Keys: p.Keys}
	arena, err := NewArena(t, 48<<20, "redis.heap")
	if err != nil {
		return st, err
	}
	store, err := NewStore(t, arena, 256)
	if err != nil {
		return st, err
	}
	for i := 0; i < p.Keys; i++ {
		if err := store.Set(t, keyFor(bp, i), valFor(bp, i)); err != nil {
			return st, err
		}
	}
	if p.Migrate {
		if err := t.Migrate(mem.NodeArm); err != nil {
			return st, err
		}
	}

	t.BeginTimed()
	var conns []int
	bufs := make(map[int][]byte)
	for st.Served < p.Expected {
		progress := false
		fd, err := t.TrySocketAccept(lfd)
		if err != nil {
			return st, err
		}
		if fd >= 0 {
			conns = append(conns, fd)
			progress = true
		}
		for ci := 0; ci < len(conns); ci++ {
			fd := conns[ci]
			data, err := t.TryRecvSock(fd, 4096)
			if err == io.EOF {
				if err := t.CloseSock(fd); err != nil {
					return st, err
				}
				conns = append(conns[:ci], conns[ci+1:]...)
				delete(bufs, fd)
				ci--
				progress = true
				continue
			}
			if err != nil {
				return st, err
			}
			if len(data) == 0 {
				continue
			}
			progress = true
			buf := append(bufs[fd], data...)
			// Pipelining: decode and execute every complete request in the
			// reassembly buffer, staging the responses, then flush them in
			// one socket write per drain — a pipelined client's burst costs
			// one send-path traversal instead of one per response.
			var out []byte
			for {
				cmd, key, val, rest, ok, derr := decodeRequest(buf)
				if derr != nil {
					return st, derr
				}
				if !ok {
					break
				}
				buf = rest
				// Protocol parsing cost (RESP decode is byte-at-a-time work).
				t.Compute(int64(20 + (len(key)+len(val))/8))
				payload, miss, err := netExecute(t, store, cmd, key, val)
				if err != nil {
					return st, err
				}
				st.Misses += miss
				if p.ExtraCompute > 0 {
					t.Compute(p.ExtraCompute)
				}
				status := byte(1)
				if miss > 0 {
					status = 0
				}
				out = append(out, encodeResponse(status, payload)...)
				st.Served++
			}
			if len(out) > 0 {
				if _, err := t.SendSock(fd, out); err != nil {
					return st, err
				}
			}
			bufs[fd] = buf
		}
		if !progress {
			t.Th.Advance(400) // poll interval
			t.Th.YieldPoint()
		}
	}
	st.ServeCycles = t.TimedCycles()
	for _, fd := range conns {
		if err := t.CloseSock(fd); err != nil {
			return st, err
		}
	}
	return st, t.CloseSock(lfd)
}

// netExecute runs one command against the store and returns the response
// payload (the value for reads, nothing for writes) plus a miss count.
func netExecute(t *kernel.Task, store *Store, cmd Command, key, val []byte) ([]byte, int, error) {
	switch cmd {
	case CmdGet:
		got, err := store.Get(t, key)
		if err != nil {
			return nil, 0, err
		}
		if got == nil {
			return nil, 1, nil
		}
		return got, 0, nil
	case CmdSet:
		return nil, 0, store.Set(t, key, val)
	case CmdLPush:
		return nil, 0, store.Push(t, append([]byte("l:"), key...), val, true)
	case CmdRPush:
		return nil, 0, store.Push(t, append([]byte("l:"), key...), val, false)
	case CmdLPop, CmdRPop:
		got, err := store.Pop(t, append([]byte("l:"), key...), cmd == CmdLPop)
		if err != nil {
			return nil, 0, err
		}
		if got == nil {
			return nil, 1, nil
		}
		return got, 0, nil
	case CmdSAdd:
		member := val
		if len(member) > 32 {
			member = member[:32]
		}
		_, err := store.SAdd(t, append([]byte("s:"), key...), member)
		return nil, 0, err
	case CmdMSet:
		for j := 0; j < 4; j++ {
			k := append([]byte(fmt.Sprintf("m%d:", j)), key...)
			if err := store.Set(t, k, val); err != nil {
				return nil, 0, err
			}
		}
		return nil, 0, nil
	}
	return nil, 0, fmt.Errorf("redisapp: bad command %d", cmd)
}
