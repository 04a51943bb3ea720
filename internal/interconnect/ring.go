// Package interconnect implements the inter-kernel communication fabric:
// shared-memory ring buffers (the Popcorn/Stramash messaging layer, §6.2),
// a TCP-like network transport with SmartNIC round-trip latency (§8.2), and
// the messenger that multiplexes request/response traffic between kernel
// instances with IPI notification.
package interconnect

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Ring is a single-producer single-consumer ring buffer living in simulated
// physical memory. Its control words and slots are real memory: every
// enqueue and dequeue goes through the cache model, so placing the ring in
// local, remote, or CXL-pool memory changes its cost exactly as in §8.2.
//
// Layout at Base:
//
//	+0x00  head (u64): next slot the producer will fill
//	+0x40  tail (u64): next slot the consumer will read
//	+0x80  slot[0] ... slot[Slots-1], each SlotSize bytes:
//	        u32 length | payload...
//
// Head and tail live on separate cache lines to avoid false sharing, like
// the kernel implementation.
type Ring struct {
	Base     mem.PhysAddr
	Slots    int
	SlotSize int
}

const (
	ringHeadOff  = 0x00
	ringTailOff  = 0x40
	ringSlotsOff = 0x80
	slotHeader   = 4
)

// NewRing initializes ring control state in memory (head = tail = 0).
func NewRing(pt *hw.Port, base mem.PhysAddr, slots, slotSize int) *Ring {
	if slots < 2 || slotSize <= slotHeader {
		panic(fmt.Sprintf("interconnect: bad ring geometry slots=%d slotSize=%d", slots, slotSize))
	}
	r := &Ring{Base: base, Slots: slots, SlotSize: slotSize}
	pt.Write64(base+ringHeadOff, 0)
	pt.Write64(base+ringTailOff, 0)
	return r
}

// Bytes returns the memory footprint of the ring.
func (r *Ring) Bytes() uint64 {
	return uint64(ringSlotsOff + r.Slots*r.SlotSize)
}

// MaxPayload returns the largest message the ring can carry in one slot.
func (r *Ring) MaxPayload() int { return r.SlotSize - slotHeader }

func (r *Ring) slotAddr(i uint64) mem.PhysAddr {
	return r.Base + ringSlotsOff + mem.PhysAddr(int(i%uint64(r.Slots))*r.SlotSize)
}

// Full reports whether the ring has no free slot.
func (r *Ring) Full(pt *hw.Port) bool {
	head := pt.Read64(r.Base + ringHeadOff)
	tail := pt.Read64(r.Base + ringTailOff)
	return head-tail >= uint64(r.Slots)
}

// Empty reports whether the ring holds no message.
func (r *Ring) Empty(pt *hw.Port) bool {
	head := pt.Read64(r.Base + ringHeadOff)
	tail := pt.Read64(r.Base + ringTailOff)
	return head == tail
}

// Send enqueues payload. It returns false if the ring is full (the caller
// decides whether to spin, yield, or drop). Large payloads spanning
// multiple slots are rejected; the messaging layer fragments instead.
func (r *Ring) Send(pt *hw.Port, payload []byte) bool {
	if len(payload) > r.MaxPayload() {
		panic(fmt.Sprintf("interconnect: payload %d exceeds slot capacity %d", len(payload), r.MaxPayload()))
	}
	head := pt.Read64(r.Base + ringHeadOff)
	tail := pt.Read64(r.Base + ringTailOff)
	if head-tail >= uint64(r.Slots) {
		return false
	}
	slot := r.slotAddr(head)
	var hdr [slotHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	pt.Write(slot, hdr[:])
	pt.Write(slot+slotHeader, payload)
	pt.Write64(r.Base+ringHeadOff, head+1)
	if tr := pt.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindRingEnqueue,
			Node: int8(pt.Node), Core: int16(pt.Core), Tid: int32(pt.T.ID),
			PA: uint64(slot), Arg: int64(len(payload))})
	}
	return true
}

// Recv dequeues the oldest message into a fresh slice, returning nil,
// false when empty.
func (r *Ring) Recv(pt *hw.Port) ([]byte, bool) {
	return r.RecvAppend(pt, nil)
}

// RecvAppend dequeues the oldest message, reading its payload straight from
// the slot onto the end of dst, and returns the extended slice; when the
// ring is empty it returns dst, false.
func (r *Ring) RecvAppend(pt *hw.Port, dst []byte) ([]byte, bool) {
	head := pt.Read64(r.Base + ringHeadOff)
	tail := pt.Read64(r.Base + ringTailOff)
	if head == tail {
		return dst, false
	}
	slot := r.slotAddr(tail)
	n := int(uint32(pt.ReadUint(slot, slotHeader)))
	if n > r.MaxPayload() {
		panic(fmt.Sprintf("interconnect: corrupt slot length %d", n))
	}
	dst = slices.Grow(dst, n)[:len(dst)+n]
	pt.ReadInto(slot+slotHeader, dst[len(dst)-n:])
	pt.Write64(r.Base+ringTailOff, tail+1)
	if tr := pt.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(pt.T.Now()), Kind: trace.KindRingDequeue,
			Node: int8(pt.Node), Core: int16(pt.Core), Tid: int32(pt.T.ID),
			PA: uint64(slot), Arg: int64(n)})
	}
	return dst, true
}
