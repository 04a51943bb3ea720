package redisapp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
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

// execute runs one command against the store and returns the response
// payload (the value for reads, nothing for writes) plus a miss count. It
// is the one request path: the socket server, its workers, AOF replay and
// the Figure 14 ring server all run commands through it.
func execute(t *kernel.Task, store *Store, cmd Command, key, val []byte) ([]byte, int, error) {
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
		// A set member is the value's first 32 bytes, or all of a shorter
		// value.
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
