package net

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/mem"
)

// NICConfig sizes one NIC's descriptor rings.
type NICConfig struct {
	// Slots is the number of frame slots in each of the TX and RX rings.
	Slots int
	// SlotSize is the byte size of one ring slot; it must hold the ring's
	// own 4-byte slot header plus a maximal frame (HeaderBytes + MTU).
	SlotSize int
}

// DefaultNICConfig returns the evaluation NIC geometry: 64 slots per ring,
// sized for one maximal TCP-lite frame per slot.
func DefaultNICConfig() NICConfig { return NICConfig{Slots: 64, SlotSize: 1152} }

// NICStats counts one NIC's device-level activity. All counters are
// host-side observation state: they mirror what the simulated rings do but
// are never read by simulated code, so exporting them cannot perturb
// simulated time.
type NICStats struct {
	TxFrames    int64 // frames handed to the switch
	RxFrames    int64 // frames delivered into the RX ring
	TxBytes     int64 // wire bytes out (header + payload)
	RxBytes     int64 // wire bytes in
	Doorbells   int64 // TX doorbell rings
	Retransmits int64 // frames re-sent after the peer's RX ring was full
	RxOccHW     int64 // high-water mark of RX ring occupancy, in frames
}

// NIC is one machine's simulated network interface: an SPSC TX ring the
// local transport produces into and an SPSC RX ring the switch fabric
// produces into, both living in the machine's simulated physical memory so
// every descriptor access pays the cache model's price. Frame arrival is
// signalled by a doorbell IPI to (IRQNode, IRQCore), mirroring how the
// interconnect messenger notifies a peer kernel.
type NIC struct {
	// Mach is the machine index on the fabric (the NIC's "MAC address").
	Mach int
	// Plat is the machine the NIC belongs to.
	Plat *hw.Platform
	// IRQNode and IRQCore address the doorbell IPI for frame arrival.
	IRQNode mem.NodeID
	IRQCore int

	TX, RX *interconnect.Ring
	Stats  NICStats

	// rxDepth mirrors the RX ring occupancy host-side so the high-water
	// stat needs no simulated reads.
	rxDepth int64
}

// nicAlign rounds ring bases to a cache line.
const nicAlign = 64

// NewNIC initializes a NIC whose rings start at base in pt's memory. The
// boot-time port pays for zeroing the ring control words, exactly like the
// messenger's rings.
func NewNIC(pt *hw.Port, mach int, base mem.PhysAddr, cfg NICConfig) *NIC {
	if cfg.Slots == 0 {
		cfg = DefaultNICConfig()
	}
	if cfg.SlotSize < HeaderBytes+MTU+4 {
		panic(fmt.Sprintf("net: NIC slot size %d cannot hold a maximal frame", cfg.SlotSize))
	}
	n := &NIC{
		Mach:    mach,
		Plat:    pt.Plat,
		IRQNode: pt.Node,
		IRQCore: pt.Core,
	}
	n.TX = interconnect.NewRing(pt, base, cfg.Slots, cfg.SlotSize)
	rxBase := base + mem.PhysAddr((n.TX.Bytes()+nicAlign-1)&^uint64(nicAlign-1))
	n.RX = interconnect.NewRing(pt, rxBase, cfg.Slots, cfg.SlotSize)
	return n
}

// noteRxEnqueued records one frame entering the RX ring (called by the
// fabric after a successful enqueue).
func (n *NIC) noteRxEnqueued(wireBytes int) {
	n.Stats.RxFrames++
	n.Stats.RxBytes += int64(wireBytes)
	n.rxDepth++
	if n.rxDepth > n.Stats.RxOccHW {
		n.Stats.RxOccHW = n.rxDepth
	}
}

// noteRxDrained records one frame leaving the RX ring (called by the
// stack's receive poll).
func (n *NIC) noteRxDrained() {
	if n.rxDepth > 0 {
		n.rxDepth--
	}
}
