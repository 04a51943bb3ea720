// Package hw assembles the simulated hardware platform: physical memory,
// the cache/coherence timing model, per-node clocks, and cross-ISA
// inter-processor interrupts. It also provides Port, the access handle
// through which all simulated software touches memory — every load and
// store both moves real bytes and charges simulated cycles.
package hw

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes the hardware platform.
type Config struct {
	Model mem.Model
	Cache cache.Config
	// ClockHz per node; defaults to 2.1 GHz (x86, Xeon Gold) and 2.0 GHz
	// (arm, ThunderX2) per Table 1.
	ClockHz [2]int64
	// IPIMicros is the cross-ISA IPI delivery latency; the paper measures
	// ~2 µs on large machine pairs (§9.1.1) and adopts that value.
	IPIMicros float64
	// CPI is the per-node non-memory cycles-per-instruction. The
	// Stramash-QEMU timing model fixes it at 1.0 (§7.3, "fixed non-memory
	// IPC"); the bare-metal reference machines of §9.1 use measured values,
	// and the gap between the two is precisely what the Figure 7 icount
	// validation quantifies.
	CPI [2]float64
	// Tracer, when non-nil, receives structured events from every layer of
	// the platform (scheduler, caches, IPIs, and the software stacks built
	// on top). nil disables tracing at zero cost.
	Tracer trace.Tracer
	// Engine, when non-nil, is the simulation engine the platform joins
	// instead of creating its own. Cluster builds share one engine across
	// every member machine so the whole fabric lives on a single
	// deterministic timeline.
	Engine *sim.Engine
}

// DefaultConfig returns the §9.2 evaluation platform for a memory model.
func DefaultConfig(model mem.Model) Config {
	return Config{
		Model:     model,
		Cache:     cache.DefaultConfig(model),
		ClockHz:   [2]int64{2_100_000_000, 2_000_000_000},
		IPIMicros: 2.0,
	}
}

// ipiKey addresses one core's doorbell.
type ipiKey struct {
	node mem.NodeID
	core int
}

// Platform is the assembled machine.
type Platform struct {
	Cfg    Config
	Engine *sim.Engine
	Phys   *mem.Physical
	Caches *cache.Hierarchy
	// Tracer mirrors Cfg.Tracer for cheap access from the software layers
	// (kernel, popcorn, stramash, interconnect).
	Tracer trace.Tracer

	ipiHandlers map[ipiKey]func(when sim.Cycles)
	ipiCount    [2]int64
}

// NewPlatform builds the machine for cfg.
func NewPlatform(cfg Config) *Platform {
	if cfg.ClockHz[0] == 0 {
		cfg.ClockHz[0] = 2_100_000_000
	}
	if cfg.ClockHz[1] == 0 {
		cfg.ClockHz[1] = 2_000_000_000
	}
	if cfg.IPIMicros == 0 {
		cfg.IPIMicros = 2.0
	}
	if cfg.CPI[0] == 0 {
		cfg.CPI[0] = 1.0
	}
	if cfg.CPI[1] == 0 {
		cfg.CPI[1] = 1.0
	}
	layout := mem.DefaultLayout(cfg.Model)
	phys := mem.NewPhysical(layout)
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	p := &Platform{
		Cfg:         cfg,
		Engine:      eng,
		Phys:        phys,
		Caches:      cache.NewHierarchy(cfg.Cache, phys.Layout()),
		Tracer:      cfg.Tracer,
		ipiHandlers: make(map[ipiKey]func(when sim.Cycles)),
	}
	if cfg.Tracer != nil {
		p.Engine.Tracer = cfg.Tracer
	}
	p.Caches.Tracer = cfg.Tracer
	if cs, ok := cfg.Tracer.(trace.ClockSetter); ok {
		cs.SetClockHz(cfg.ClockHz)
	}
	return p
}

// Clock returns the cycle clock of node n.
func (p *Platform) Clock(n mem.NodeID) sim.Clock {
	return sim.Clock{Hz: p.Cfg.ClockHz[n]}
}

// Layout returns the physical memory map.
func (p *Platform) Layout() *mem.Layout { return p.Phys.Layout() }

// RegisterIPIHandler installs the receive handler for a core's doorbell.
// The handler runs at the simulated time the IPI arrives; it typically
// wakes the core's thread via Engine.Wake.
func (p *Platform) RegisterIPIHandler(node mem.NodeID, core int, h func(when sim.Cycles)) {
	p.ipiHandlers[ipiKey{node, core}] = h
}

// SendIPI delivers a cross-ISA inter-processor interrupt from the calling
// thread to (node, core). The sender pays a small trap cost; the receiver's
// handler observes the configured delivery latency (§7.2: AArch64 SGI and
// x86 APIC extended with routing logic to the peer ISA).
func (p *Platform) SendIPI(t *sim.Thread, to mem.NodeID, core int) {
	const sendCost = 100 // APIC/SGI register write + routing logic
	t.Advance(sendCost)
	p.ipiCount[to]++
	lat := p.Clock(to).FromMicros(p.Cfg.IPIMicros)
	if tr := p.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Now()), Kind: trace.KindDoorbell,
			Node: int8(to), Core: int16(core), Tid: int32(t.ID), Arg: int64(to)})
	}
	h := p.ipiHandlers[ipiKey{to, core}]
	if h == nil {
		// Undelivered IPIs are legal (core may be polling instead).
		return
	}
	h(t.Now() + lat)
}

// IPICount returns the number of IPIs delivered to node n.
func (p *Platform) IPICount(n mem.NodeID) int64 { return p.ipiCount[n] }

// Port is the memory access handle for one hardware context (a thread of
// simulated software executing on a specific node and core). Every method
// charges the caller's simulated clock with the cache model's latency and
// performs the real data movement.
type Port struct {
	Plat *Platform
	Node mem.NodeID
	Core int
	T    *sim.Thread
}

// NewPort binds thread t to (node, core).
func (p *Platform) NewPort(node mem.NodeID, core int, t *sim.Thread) *Port {
	return &Port{Plat: p, Node: node, Core: core, T: t}
}

// charge pushes one access through the cache model, advances the clock
// and returns the access's latency.
func (pt *Port) charge(kind cache.Kind, addr mem.PhysAddr, size int) sim.Cycles {
	if pt.Plat.Tracer != nil {
		pt.Plat.Caches.TraceContext(int64(pt.T.Now()), int32(pt.T.ID))
	}
	lat := pt.Plat.Caches.Access(pt.Node, pt.Core, kind, addr, size)
	pt.T.Advance(lat)
	return lat
}

// ReadInto fills dst with the len(dst) bytes at addr without allocating:
// one cache access of len(dst) bytes.
func (pt *Port) ReadInto(addr mem.PhysAddr, dst []byte) {
	pt.charge(cache.Read, addr, len(dst))
	pt.Plat.Phys.ReadInto(addr, dst)
}

// Write stores data at addr.
func (pt *Port) Write(addr mem.PhysAddr, data []byte) {
	pt.charge(cache.Write, addr, len(data))
	pt.Plat.Phys.Write(addr, data)
}

// ReadUint loads up to 8 bytes at addr, little-endian, without allocating.
// The cache model is charged for the full n bytes, exactly like ReadInto;
// only the data-movement side differs (a register value instead of a slice).
func (pt *Port) ReadUint(addr mem.PhysAddr, n int) uint64 {
	pt.charge(cache.Read, addr, n)
	return pt.Plat.Phys.ReadUint(addr, n)
}

// WriteUint stores n bytes of v at addr, little-endian, without allocating
// (bytes past the eighth are written as zero). Charged exactly like Write.
func (pt *Port) WriteUint(addr mem.PhysAddr, n int, v uint64) {
	pt.charge(cache.Write, addr, n)
	pt.Plat.Phys.WriteUint(addr, n, v)
}

// Read64 loads a 64-bit little-endian word.
func (pt *Port) Read64(addr mem.PhysAddr) uint64 {
	pt.charge(cache.Read, addr, 8)
	return pt.Plat.Phys.Read64(addr)
}

// Write64 stores a 64-bit little-endian word.
func (pt *Port) Write64(addr mem.PhysAddr, v uint64) {
	pt.charge(cache.Write, addr, 8)
	pt.Plat.Phys.Write64(addr, v)
}

// AtomicPenalty is the fixed cost of an atomic read-modify-write beyond
// its write access.
const AtomicPenalty = 12

// ChargeAtomic charges the access of an atomic read-modify-write of the
// 64-bit word at addr: a write (the coherence protocol must gain exclusive
// ownership either way) plus AtomicPenalty. It returns the write's
// latency. CompareAndSwap64 and AtomicAdd64 are ChargeAtomic, a yield
// point, and the data operation.
func (pt *Port) ChargeAtomic(addr mem.PhysAddr) sim.Cycles {
	lat := pt.charge(cache.Write, addr, 8)
	pt.T.Advance(AtomicPenalty)
	return lat
}

// CompareAndSwap64 is the cross-ISA atomic primitive (§6.5): x86 LOCK
// CMPXCHG and Arm LSE CAS both map onto it. A wait loop that resumes
// between its charge and its compare-and-swap runs the second half alone,
// Phys.CompareAndSwap64 (kernel.Task.SpinCAS).
func (pt *Port) CompareAndSwap64(addr mem.PhysAddr, old, new uint64) (uint64, bool) {
	pt.ChargeAtomic(addr)
	// Serialize against other simulated threads at a scheduling point so
	// lock interleavings follow simulated time.
	pt.T.YieldPoint()
	return pt.Plat.Phys.CompareAndSwap64(addr, old, new)
}

// AtomicAdd64 atomically adds delta to the word at addr, returning the new
// value (x86 LOCK XADD / Arm LDADD).
func (pt *Port) AtomicAdd64(addr mem.PhysAddr, delta uint64) uint64 {
	pt.ChargeAtomic(addr)
	pt.T.YieldPoint()
	v := pt.Plat.Phys.Read64(addr) + delta
	pt.Plat.Phys.Write64(addr, v)
	return v
}

// CopyPage copies a whole page, charging line-granular reads of the source
// and writes of the destination (this is what makes DSM page replication
// expensive, §9.2.3).
func (pt *Port) CopyPage(dst, src mem.PhysAddr) {
	for off := 0; off < mem.PageSize; off += mem.LineSize {
		pt.charge(cache.Read, src+mem.PhysAddr(off), mem.LineSize)
		pt.charge(cache.Write, dst+mem.PhysAddr(off), mem.LineSize)
	}
	pt.Plat.Phys.CopyPage(dst, src)
}

// InstallPage copies the page at src into dst, charging only the writes of
// dst. Used when the source bytes already travelled through an explicitly
// charged channel (e.g. a message carrying a DSM page payload), so charging
// a remote read of src again would double-count the transfer.
func (pt *Port) InstallPage(dst, src mem.PhysAddr) {
	for off := 0; off < mem.PageSize; off += mem.LineSize {
		pt.charge(cache.Write, dst+mem.PhysAddr(off), mem.LineSize)
	}
	pt.Plat.Phys.CopyPage(dst, src)
}

// ZeroPage clears a page, charging line-granular writes.
func (pt *Port) ZeroPage(a mem.PhysAddr) {
	for off := 0; off < mem.PageSize; off += mem.LineSize {
		pt.charge(cache.Write, a+mem.PhysAddr(off), mem.LineSize)
	}
	pt.Plat.Phys.ZeroPage(a)
}

// Compute charges n non-memory instructions at the node's configured CPI
// (1.0 in simulator mode, §7.3) plus instruction fetches through L1I: one
// fetch of the code window's next line per line's worth of instructions
// (the last batch may be partial), each followed by the batch's non-memory
// cycles. The fetch stream walks the window so the L1I behaves
// realistically for loopy code.
//
// Fetches that hit are charged as a hit run: as many consecutive resident
// lines of the window, wrapping at its end, as are left in full batches and
// fit before the thread's next quantum yield go through
// cache.Hierarchy.IfetchHits in one call, and the clock advances once by
// their sum. That is the same simulated history as fetching them one by one
// (DESIGN.md §6); the fetch that misses, the one whose cycles cross the
// quantum and the partial tail batch are always charged individually, as is
// every fetch while a cache Tap is installed.
func (pt *Port) Compute(n int64, pc *CodeWindow) {
	if n <= 0 {
		return
	}
	cpi := pt.Plat.Cfg.CPI[pt.Node]
	// One ifetch per line's worth of instructions (4-byte instructions).
	const instPerLine = mem.LineSize / 4
	perHit := pt.Plat.Cfg.Cache.Nodes[pt.Node].Lat.L1 + batchCycles(instPerLine, cpi)
	for i := int64(0); i < n; {
		if k := (n - i) / instPerLine; k > 0 && perHit > 0 {
			// k·perHit must stay below the yield headroom, so that no
			// Advance of the run would have yielded.
			k = min(k, int64((pt.T.YieldHeadroom()-1)/perHit))
			if hits := pt.Plat.Caches.IfetchHits(pt.Node, pt.Core, pc.Base, pc.lines, pc.line, k); hits > 0 {
				pc.advance(hits)
				pt.T.Advance(sim.Cycles(hits) * perHit)
				i += int64(hits) * instPerLine
				continue
			}
		}
		pt.charge(cache.Ifetch, pc.next(), mem.LineSize)
		pt.T.Advance(batchCycles(min(n-i, instPerLine), cpi))
		i += instPerLine
	}
}

// batchCycles is what a batch of instructions costs beyond its fetch: the
// batch at the node's CPI, less the one instruction's worth the ifetch
// itself retires.
func batchCycles(batch int64, cpi float64) sim.Cycles {
	extra := sim.Cycles(float64(batch)*cpi + 0.5)
	if extra > 0 {
		extra--
	}
	return extra
}

// String identifies the port for diagnostics.
func (pt *Port) String() string {
	return fmt.Sprintf("port(%v/core%d)", pt.Node, pt.Core)
}

// CodeWindow models the instruction footprint of the currently executing
// code: the PC walks the whole cache lines of [Base, Base+Size) one line per
// fetch and wraps, approximating a loop nest whose working set is Size
// bytes. Construct it with NewCodeWindow.
type CodeWindow struct {
	Base mem.PhysAddr
	Size uint64
	// line is the next line to fetch, counted from Base; lines is Size in
	// whole lines.
	line, lines int
}

// NewCodeWindow returns the window of whole lines covering size bytes at
// base: Base is aligned down to a line and Size rounded up to a line
// multiple (at least one line).
func NewCodeWindow(base mem.PhysAddr, size uint64) *CodeWindow {
	const mask = mem.LineSize - 1
	end := (uint64(base) + max(size, 1) + mask) &^ mask
	base &^= mask
	lines := int((end - uint64(base)) / mem.LineSize)
	return &CodeWindow{Base: base, Size: end - uint64(base), lines: lines}
}

// next returns the address of the next line to fetch and steps past it.
func (w *CodeWindow) next() mem.PhysAddr {
	a := w.Base + mem.PhysAddr(w.line)*mem.LineSize
	w.advance(1)
	return a
}

// advance steps the walk past k fetched lines, wrapping at the window's
// end as often as k requires: a hit run may cover the window many times.
func (w *CodeWindow) advance(k int) {
	w.line = (w.line + k) % w.lines
}
