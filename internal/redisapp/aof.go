package redisapp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// AOF record wire format, length-prefixed so a crash mid-append leaves a
// detectably-truncated tail rather than a silently corrupt log:
//
//	len(4) | cmd(1) | klen(4) | vlen(4) | key... | val...
//
// where len counts the request frame after it (reqHdr + klen + vlen).
// Records hold the wire-level command as received — replay runs them
// through the same execute path as live traffic, so derived-key prefixes,
// SADD member truncation and MSET fan-out are reproduced rather than
// re-encoded.

// appendAOFRecord appends one mutation record to b.
func appendAOFRecord(b []byte, cmd Command, key, val []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(reqHdr+len(key)+len(val)))
	return appendRequest(b, cmd, key, val)
}

// decodeAOFRecord pulls one record off the front of buf. ok=false with a
// nil error means the buffer ends mid-record (a truncated tail — legal
// after a crash); a header that cannot be valid at any length is
// corruption and errors.
func decodeAOFRecord(buf []byte) (cmd Command, key, val, rest []byte, ok bool, err error) {
	const hdr = 4 + reqHdr
	if len(buf) < hdr {
		return 0, nil, nil, buf, false, nil
	}
	rlen := binary.LittleEndian.Uint32(buf[0:4])
	cmd, klen, vlen, err := requestHeader(buf[4:])
	if err == nil && rlen != uint32(reqHdr+klen+vlen) {
		err = fmt.Errorf("redisapp: corrupt AOF record (len=%d klen=%d vlen=%d)", rlen, klen, vlen)
	}
	end := hdr + klen + vlen
	if err != nil || len(buf) < end {
		return 0, nil, nil, buf, false, err
	}
	return cmd, buf[hdr : hdr+klen], buf[hdr+klen : end], buf[end:], true, nil
}

// mutatesStore reports whether a command's effect must be logged. Pops
// mutate only when they return an element, which the caller knows from
// the miss count.
func mutatesStore(cmd Command, miss int) bool {
	switch cmd {
	case CmdSet, CmdLPush, CmdRPush, CmdSAdd, CmdMSet:
		return true
	case CmdLPop, CmdRPop:
		return miss == 0
	}
	return false
}

// The production server's log file and group-commit policy: flush the
// staged records after aofGroupK of them, or once aofGroupQ cycles have
// passed since the last flush (checked at append time, like a timer wheel
// serviced on the request path), whichever comes first.
const (
	aofPath              = "/redis.aof"
	aofGroupK            = 8
	aofGroupQ sim.Cycles = 150_000
)

// aofLog is one task's append-only-file handle with group commit: Append
// stages records host-side, and the staged batch is written and fsynced
// when the policy above says so — redis's "appendfsync everysec" shape,
// but measured in simulated time so the policy is a pure function of the
// cycle clock and the command stream. Each worker owns its own aofLog over
// its own descriptor; the file itself is opened with OAppend, so
// concurrent batch writes land as atomic appends.
type aofLog struct {
	fd        int
	staged    []byte
	stagedRec int
	lastFlush sim.Cycles

	// Batches counts fsync batches, Records appended records, Bytes
	// written bytes — the -json worker counters.
	Batches int64
	Records int64
	Bytes   int64
}

// openAOF opens (creating if needed) the log at aofPath for appending.
func openAOF(t *kernel.Task) (*aofLog, error) {
	fd, err := t.OpenFile(aofPath, vfs.OWrite|vfs.OCreate|vfs.OAppend)
	if err != nil {
		return nil, err
	}
	return &aofLog{fd: fd, lastFlush: t.Th.Now()}, nil
}

// Append stages one mutation record and flushes if the group-commit
// policy says so.
func (l *aofLog) Append(t *kernel.Task, cmd Command, key, val []byte) error {
	l.staged = appendAOFRecord(l.staged, cmd, key, val)
	l.stagedRec++
	l.Records++
	if l.stagedRec >= aofGroupK || t.Th.Now()-l.lastFlush >= aofGroupQ {
		return l.Flush(t)
	}
	return nil
}

// Flush writes the staged batch in one append and fsyncs it. The fsync is
// where the page-cache regimes diverge: the fused cache has nothing to
// flush, the popcorn cache pushes dirty replica pages home by message.
func (l *aofLog) Flush(t *kernel.Task) error {
	l.lastFlush = t.Th.Now()
	if l.stagedRec == 0 {
		return nil
	}
	if _, err := t.WriteFile(l.fd, l.staged); err != nil {
		return err
	}
	if err := t.SyncFile(l.fd); err != nil {
		return err
	}
	l.Bytes += int64(len(l.staged))
	l.Batches++
	l.staged = l.staged[:0]
	l.stagedRec = 0
	return nil
}

// Close flushes and releases the descriptor.
func (l *aofLog) Close(t *kernel.Task) error {
	if err := l.Flush(t); err != nil {
		return err
	}
	return t.CloseFile(l.fd)
}

// RecoverAOF replays the log at path into store, returning the number of
// records applied. A truncated tail (crash mid-append) is tolerated and
// replay stops cleanly before it; a corrupt record mid-file is an error.
func RecoverAOF(t *kernel.Task, path string, store *Store) (int, error) {
	fd, err := t.OpenFile(path, vfs.ORead)
	if err != nil {
		return 0, err
	}
	size, err := t.FileSize(fd)
	if err != nil {
		return 0, err
	}
	applied := 0
	var buf []byte
	var off int64
	chunk := make([]byte, 4096)
	for {
		for {
			cmd, key, val, rest, ok, derr := decodeAOFRecord(buf)
			if derr != nil {
				return applied, derr
			}
			if !ok {
				break
			}
			buf = rest
			if _, _, err := execute(t, store, nil, cmd, key, val); err != nil {
				return applied, err
			}
			applied++
		}
		if off >= size {
			break
		}
		n, err := t.ReadFileAt(fd, chunk, off)
		if err != nil {
			return applied, err
		}
		if n == 0 {
			break
		}
		off += int64(n)
		buf = append(buf, chunk[:n]...)
	}
	return applied, t.CloseFile(fd)
}
