// Package net is the simulated network stack: NIC devices with SPSC
// ring-buffer TX/RX queues living in simulated physical memory, a switch
// fabric joining the machines of a cluster with deterministic arbitration,
// and a small TCP-lite transport (three-way handshake, in-order delivery,
// fixed-size frames, a byte-granular flow-control window) on which the
// kernel's socket syscalls are built.
//
// Everything here follows the determinism contract of the rest of the
// simulator: every cross-machine effect happens on the sending thread's own
// timeline, frame arbitration at the switch is a function of simulated time only, and
// tracing is observation-only. The layering mirrors the CSP-style Go kernel
// network stack split (socket / transport / device) with the interconnect
// package's ring + doorbell idiom as the device layer.
package net

import (
	"encoding/binary"
	"fmt"
)

// Addr names one transport endpoint on the fabric: a machine index plus a
// 16-bit port number.
type Addr struct {
	Mach int
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("m%d:%d", a.Mach, a.Port) }

// FrameKind is the transport-level frame type.
type FrameKind uint8

const (
	// FrameSYN opens a connection (client -> listener).
	FrameSYN FrameKind = iota + 1
	// FrameSYNACK accepts a connection (listener -> client).
	FrameSYNACK
	// FrameACK completes the handshake or acknowledges consumed bytes
	// (Ack = cumulative bytes the application has consumed).
	FrameACK
	// FrameDATA carries payload bytes (Seq = stream offset of the first
	// payload byte).
	FrameDATA
	// FrameFIN closes the sender's direction of the stream.
	FrameFIN

	frameKindEnd
)

func (k FrameKind) String() string {
	switch k {
	case FrameSYN:
		return "SYN"
	case FrameSYNACK:
		return "SYNACK"
	case FrameACK:
		return "ACK"
	case FrameDATA:
		return "DATA"
	case FrameFIN:
		return "FIN"
	}
	return fmt.Sprintf("FrameKind(%d)", uint8(k))
}

// Frame is one fixed-format transport frame. Frames never exceed one NIC
// ring slot: HeaderBytes of header plus at most MTU payload bytes.
type Frame struct {
	Kind     FrameKind
	Src, Dst Addr
	// Seq is the stream offset of the first payload byte (DATA), zero
	// otherwise.
	Seq uint32
	// Ack is the cumulative count of stream bytes the receiver's
	// application has consumed (ACK), zero otherwise.
	Ack uint32
	// Window advertises the receiver's flow-control window in bytes.
	Window  uint32
	Payload []byte
}

// Wire format: kind(1) srcMach(2) srcPort(2) dstMach(2) dstPort(2)
// seq(4) ack(4) window(4) plen(2) payload[plen], little-endian.
const (
	// HeaderBytes is the fixed frame header size.
	HeaderBytes = 23
	// MTU is the largest payload one frame can carry. Header plus MTU fits
	// one default NIC ring slot with room for the ring's own slot header.
	MTU = 1024
	// maxMach bounds the encodable machine index.
	maxMach = 1<<16 - 1
)

// EncodeFrame serializes f. It panics on frames the transport can never
// produce (oversized payload, out-of-range machine index): those are
// programming errors, not wire conditions.
func EncodeFrame(f *Frame) []byte {
	if len(f.Payload) > MTU {
		panic(fmt.Sprintf("net: frame payload %d exceeds MTU %d", len(f.Payload), MTU))
	}
	if f.Src.Mach < 0 || f.Src.Mach > maxMach || f.Dst.Mach < 0 || f.Dst.Mach > maxMach {
		panic(fmt.Sprintf("net: frame machine index out of range (%d -> %d)", f.Src.Mach, f.Dst.Mach))
	}
	b := make([]byte, HeaderBytes+len(f.Payload))
	b[0] = byte(f.Kind)
	binary.LittleEndian.PutUint16(b[1:3], uint16(f.Src.Mach))
	binary.LittleEndian.PutUint16(b[3:5], f.Src.Port)
	binary.LittleEndian.PutUint16(b[5:7], uint16(f.Dst.Mach))
	binary.LittleEndian.PutUint16(b[7:9], f.Dst.Port)
	binary.LittleEndian.PutUint32(b[9:13], f.Seq)
	binary.LittleEndian.PutUint32(b[13:17], f.Ack)
	binary.LittleEndian.PutUint32(b[17:21], f.Window)
	binary.LittleEndian.PutUint16(b[21:23], uint16(len(f.Payload)))
	copy(b[HeaderBytes:], f.Payload)
	return b
}

// DecodeFrame parses one frame off the wire. Frames arrive from simulated
// memory a hostile or corrupted peer could have scribbled on, so every
// field is validated: a bad kind, a truncated header, or a payload length
// that disagrees with the frame size is an error, never a panic.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) < HeaderBytes {
		return nil, fmt.Errorf("net: frame truncated: %d bytes < %d header", len(b), HeaderBytes)
	}
	k := FrameKind(b[0])
	if k < FrameSYN || k >= frameKindEnd {
		return nil, fmt.Errorf("net: bad frame kind %d", b[0])
	}
	plen := int(binary.LittleEndian.Uint16(b[21:23]))
	if plen > MTU {
		return nil, fmt.Errorf("net: frame payload length %d exceeds MTU %d", plen, MTU)
	}
	if len(b) != HeaderBytes+plen {
		return nil, fmt.Errorf("net: frame length %d does not match header+payload %d", len(b), HeaderBytes+plen)
	}
	f := &Frame{
		Kind:   k,
		Src:    Addr{Mach: int(binary.LittleEndian.Uint16(b[1:3])), Port: binary.LittleEndian.Uint16(b[3:5])},
		Dst:    Addr{Mach: int(binary.LittleEndian.Uint16(b[5:7])), Port: binary.LittleEndian.Uint16(b[7:9])},
		Seq:    binary.LittleEndian.Uint32(b[9:13]),
		Ack:    binary.LittleEndian.Uint32(b[13:17]),
		Window: binary.LittleEndian.Uint32(b[17:21]),
	}
	if plen > 0 {
		f.Payload = append([]byte(nil), b[HeaderBytes:]...)
	}
	return f, nil
}
