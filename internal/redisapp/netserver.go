package redisapp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
)

// Every framing of a request is the RESP-lite frame
// cmd(1)|klen(4)|vlen(4)|key|val, and every framing of a response is
// status(1)|plen(4)|payload (status 1 = ok, 0 = miss). The socket stream
// carries them bare, decoded from a reassembly buffer so requests may
// arrive split or coalesced across frames; an AOF record prefixes the
// request with its u32 length; the worker rings prefix both with a u64
// seq; Figure 14's RX ring carries the bare request in one slot.
const (
	respHdr = 5
	// maxNetKey and maxNetVal bound the attacker-controlled length fields
	// every header parse checks; anything larger is a protocol error, not
	// an allocation.
	maxNetKey = 512
	maxNetVal = 8192
)

// appendRequest appends one request frame to b.
func appendRequest(b []byte, cmd Command, key, val []byte) []byte {
	b = append(b, byte(cmd))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
	return append(append(b, key...), val...)
}

// requestHeader parses and bounds-checks the first reqHdr bytes of a
// request frame.
func requestHeader(hdr []byte) (cmd Command, klen, vlen int, err error) {
	cmd = Command(hdr[0])
	k, v := binary.LittleEndian.Uint32(hdr[1:5]), binary.LittleEndian.Uint32(hdr[5:9])
	if cmd < CmdGet || cmd > CmdMSet || k == 0 || k > maxNetKey || v > maxNetVal {
		return 0, 0, 0, fmt.Errorf("redisapp: corrupt request header (cmd=%d klen=%d vlen=%d)", cmd, k, v)
	}
	return cmd, int(k), int(v), nil
}

// appendResponse appends one response frame to b.
func appendResponse(b []byte, status byte, payload []byte) []byte {
	b = append(b, status)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// responseHeader parses and bounds-checks the first respHdr bytes of a
// response frame.
func responseHeader(hdr []byte) (status byte, plen int, err error) {
	status = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if status > 1 || n > maxNetVal {
		return 0, 0, fmt.Errorf("redisapp: corrupt response header (status=%d plen=%d)", status, n)
	}
	return status, int(n), nil
}

// decodeRequest pulls one complete request off the front of buf. ok=false
// with a nil error means more bytes are needed.
func decodeRequest(buf []byte) (cmd Command, key, val, rest []byte, ok bool, err error) {
	if len(buf) < reqHdr {
		return 0, nil, nil, buf, false, nil
	}
	cmd, klen, vlen, err := requestHeader(buf)
	end := reqHdr + klen + vlen
	if err != nil || len(buf) < end {
		return 0, nil, nil, buf, false, err
	}
	return cmd, buf[reqHdr : reqHdr+klen], buf[reqHdr+klen : end], buf[end:], true, nil
}

// decodeResponse pulls one complete response off the front of buf,
// mirroring decodeRequest.
func decodeResponse(buf []byte) (status byte, payload, rest []byte, ok bool, err error) {
	if len(buf) < respHdr {
		return 0, nil, buf, false, nil
	}
	status, plen, err := responseHeader(buf)
	end := respHdr + plen
	if err != nil || len(buf) < end {
		return 0, nil, buf, false, err
	}
	return status, buf[respHdr:end], buf[end:], true, nil
}

// execute runs one command against the store and returns dst with the
// response payload appended (the value for reads, nothing for writes),
// plus a miss count. It is the one request path: the socket server, its
// workers, AOF replay and the Figure 14 ring server all run commands
// through it.
func execute(t *kernel.Task, store *Store, dst []byte, cmd Command, key, val []byte) ([]byte, int, error) {
	var kb [4][]byte
	keys := derivedKeys(kb[:0], cmd, key)
	var got []byte
	var err error
	found := true
	switch cmd {
	case CmdGet:
		got, found, err = store.getAppend(t, dst, keys[0])
	case CmdSet:
		return dst, 0, store.Set(t, keys[0], val)
	case CmdLPush, CmdRPush:
		return dst, 0, store.Push(t, keys[0], val, cmd == CmdLPush)
	case CmdLPop, CmdRPop:
		got, err = store.Pop(t, keys[0], cmd == CmdLPop)
		found = got != nil
		got = append(dst, got...)
	case CmdSAdd:
		// A set member is the value's first 32 bytes, or all of a shorter
		// value.
		member := val
		if len(member) > 32 {
			member = member[:32]
		}
		_, err := store.SAdd(t, keys[0], member)
		return dst, 0, err
	case CmdMSet:
		for _, k := range keys {
			if err := store.Set(t, k, val); err != nil {
				return dst, 0, err
			}
		}
		return dst, 0, nil
	default:
		return dst, 0, fmt.Errorf("redisapp: bad command %d", cmd)
	}
	if err != nil {
		return dst, 0, err
	}
	if !found {
		return dst, 1, nil
	}
	return got, 0, nil
}
