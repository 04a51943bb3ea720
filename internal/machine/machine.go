// Package machine assembles the full simulated system: the hardware
// platform (nodes, caches, coherent memory, IPIs), two booted kernel
// instances, the messaging layer placed per the hardware model (§8.2), and
// the selected operating-system personality. It is the level at which the
// paper's experiments are expressed: pick a memory model and an OS, run
// tasks, read the counters.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/popcorn"
	"repro/internal/sim"
	"repro/internal/stramash"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// OSKind selects the operating-system personality (the bars of Figure 9).
type OSKind int

const (
	// VanillaOS runs the application on one kernel with no migration.
	VanillaOS OSKind = iota
	// PopcornTCP is the multiple-kernel baseline over the network path.
	PopcornTCP
	// PopcornSHM is the multiple-kernel baseline over shared-memory rings.
	PopcornSHM
	// StramashOS is the fused-kernel OS.
	StramashOS
)

func (k OSKind) String() string {
	switch k {
	case VanillaOS:
		return "Vanilla"
	case PopcornTCP:
		return "Popcorn-TCP"
	case PopcornSHM:
		return "Popcorn-SHM"
	case StramashOS:
		return "Stramash"
	}
	return fmt.Sprintf("OSKind(%d)", int(k))
}

// FullOS is a personality that can also create processes.
type FullOS interface {
	kernel.OS
	CreateProcess(pt *hw.Port, origin mem.NodeID) (*kernel.Process, error)
}

// Config describes one experimental machine.
type Config struct {
	Model mem.Model
	OS    OSKind
	// L3Size overrides the per-node L3 size (default 4 MiB; Figure 10
	// uses 32 MiB). Zero keeps the default.
	L3Size int
	// L2Size overrides the per-core L2 size (default 1 MiB). The scaled
	// cache-sensitivity experiments shrink the hierarchy so the scaled
	// working sets exercise the same capacity effects as the originals.
	L2Size int
	// Cores per node (default 1, like the single-thread NPB runs; zero
	// selects the default). Negative values and values above MaxCores are
	// rejected by Validate with a *ConfigError.
	Cores int
	// Sched selects the CPU scheduling policy. The default, SchedShared,
	// reproduces the pre-scheduler behaviour exactly (CPUs are bookkeeping
	// only and charge nothing); SchedTimeSlice enforces one task per core
	// with round-robin preemption.
	Sched kernel.SchedPolicy
	// SchedQuantum is the round-robin slice in retired instructions
	// (SchedTimeSlice only; zero selects kernel.DefaultSchedQuantum).
	SchedQuantum int64
	// IPIMicros / NetRTTMicros override latency constants (defaults 2/75).
	IPIMicros    float64
	NetRTTMicros float64
	// CPI overrides the per-node non-memory cycles-per-instruction
	// (zero = the simulator's fixed 1.0). Bare-metal reference machines
	// (internal/hwref) set measured values here.
	CPI [2]float64
	// Latencies overrides the per-node cache/memory latencies (nil keeps
	// the Xeon Gold / ThunderX2 defaults of Table 2).
	Latencies *[2]cache.Latencies
	// ClockHz overrides the per-node core clocks.
	ClockHz [2]int64
	// L3PerNode overrides each node's L3 size independently (a zero entry
	// disables that node's L3, like the A72 SmartNIC). Takes precedence
	// over L3Size.
	L3PerNode *[2]int
	// Tracer, when non-nil, receives cycle-timestamped structured events
	// from every layer of the machine (scheduler, caches, kernels, OS
	// personality, messaging). Tracing is observation-only: cycle counts
	// are identical with and without a tracer. nil disables tracing with
	// zero overhead beyond one nil check per emit site.
	Tracer trace.Tracer
	// FileCache selects the VFS page-cache coherence regime. The default,
	// vfs.RegimeAuto, follows the OS personality: fused kernels share one
	// page cache, multiple-kernel baselines replicate per kernel with DSM
	// messages. Setting it explicitly decouples the two axes.
	FileCache vfs.Regime
	// Fabric, when non-nil, attaches the machine to a cluster switch: a
	// NIC and a transport stack are built at boot and the socket syscalls
	// become operational. Requires SharedEngine — every machine of one
	// cluster must live in the same simulated clock universe.
	Fabric *net.Fabric
	// MachID is the machine's index on the fabric (its switch port and
	// transport address). Ignored without Fabric.
	MachID int
	// SharedEngine, when non-nil, makes the platform join an existing
	// simulation engine instead of creating its own. NewCluster assigns
	// one engine to all of its machines.
	SharedEngine *sim.Engine
	// Tenants, when non-empty, boots the machine multi-tenant: a
	// capability namespace is built with one tenant per spec and every
	// privileged syscall a tenant task makes is checked against its
	// grants and budgets. Machines without tenants keep the root fast
	// path — ctx.Caps stays nil and the gates cost one nil check and
	// zero simulated cycles.
	Tenants []TenantSpec
}

// reservedLow is the per-node reservation for kernel image, memmap, and
// (on the x86 node) the messaging area.
const reservedLow = 192 << 20

// msgAreaSize is the messaging layer's footprint (§8.2 uses 128 MB).
const msgAreaSize = 128 << 20

// vfsPoolSize is the CXL shared-pool slice reserved for the fused page
// cache in the Shared model, carved right after the messaging area.
const vfsPoolSize = 64 << 20

// Machine is one assembled system.
type Machine struct {
	Cfg  Config
	Plat *hw.Platform
	Ctx  *kernel.Context
	Msgr *interconnect.Messenger
	OS   FullOS
	// Sched is the kernel CPU scheduler every task created by RunTasks
	// attaches to: per-core run queues over both nodes' cores.
	Sched *kernel.Scheduler
	// NIC and Net are the machine's network interface and transport stack,
	// nil unless the config attached the machine to a cluster fabric.
	NIC *net.NIC
	Net *net.Stack

	procs map[string]*kernel.Process
	// vfsPoolCarved records that mountVFS placed the fused frame pool in
	// reserved memory, which shifts where the NIC rings go.
	vfsPoolCarved bool
}

// New builds and boots a machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	hwCfg := hw.DefaultConfig(cfg.Model)
	hwCfg.Cache.Nodes[0].Cores = cfg.Cores
	hwCfg.Cache.Nodes[1].Cores = cfg.Cores
	if cfg.L3Size != 0 {
		hwCfg.Cache.Nodes[0].L3.Size = cfg.L3Size
		hwCfg.Cache.Nodes[1].L3.Size = cfg.L3Size
	}
	if cfg.L3PerNode != nil {
		hwCfg.Cache.Nodes[0].L3.Size = cfg.L3PerNode[0]
		hwCfg.Cache.Nodes[1].L3.Size = cfg.L3PerNode[1]
	}
	if cfg.L2Size != 0 {
		hwCfg.Cache.Nodes[0].L2.Size = cfg.L2Size
		hwCfg.Cache.Nodes[1].L2.Size = cfg.L2Size
	}
	if cfg.IPIMicros != 0 {
		hwCfg.IPIMicros = cfg.IPIMicros
	}
	hwCfg.CPI = cfg.CPI
	if cfg.Latencies != nil {
		hwCfg.Cache.Nodes[0].Lat = cfg.Latencies[0]
		hwCfg.Cache.Nodes[1].Lat = cfg.Latencies[1]
	}
	if cfg.ClockHz[0] != 0 {
		hwCfg.ClockHz = cfg.ClockHz
	}
	hwCfg.Tracer = cfg.Tracer
	hwCfg.Engine = cfg.SharedEngine
	plat := hw.NewPlatform(hwCfg)

	m := &Machine{Cfg: cfg, Plat: plat, procs: make(map[string]*kernel.Process)}

	// Boot the two kernel instances from the firmware memory map (§6.1).
	ctx := &kernel.Context{Plat: plat}
	x86k, err := kernel.Boot(plat, mem.NodeX86, pgtable.X86Format{}, kernel.BootConfig{ReserveLow: reservedLow})
	if err != nil {
		return nil, err
	}
	armk, err := kernel.Boot(plat, mem.NodeArm, pgtable.Arm64Format{}, kernel.BootConfig{ReserveLow: reservedLow})
	if err != nil {
		return nil, err
	}
	ctx.Kernels = [2]*kernel.Kernel{x86k, armk}
	m.Ctx = ctx
	m.buildTenants()
	m.Sched = kernel.NewScheduler(ctx, cfg.Sched, cfg.SchedQuantum)

	// Initialize the messaging layer and the personality inside a boot
	// thread (ring setup needs a clocked port).
	var bootErr error
	plat.Engine.Spawn("boot", 0, func(th *sim.Thread) {
		pt := plat.NewPort(mem.NodeX86, 0, th)
		mode := interconnect.SHM
		if cfg.OS == PopcornTCP {
			mode = interconnect.TCP
		}
		mcfg := interconnect.DefaultConfig(mode, m.msgAreaBase())
		if cfg.NetRTTMicros != 0 {
			mcfg.NetRTTMicros = cfg.NetRTTMicros
		}
		m.Msgr = interconnect.NewMessenger(mcfg, plat, pt)

		switch cfg.OS {
		case VanillaOS:
			m.OS = kernel.NewVanilla(ctx)
		case PopcornTCP, PopcornSHM:
			m.OS = popcorn.New(ctx, m.Msgr)
		case StramashOS:
			m.OS = stramash.New(ctx, m.Msgr)
		default:
			bootErr = fmt.Errorf("machine: unknown OS kind %v", cfg.OS)
			return
		}
		bootErr = m.mountVFS(ctx)
		if bootErr == nil && cfg.Fabric != nil {
			m.attachNIC(ctx, pt)
		}
	})
	if err := m.Plat.Engine.Run(); err != nil {
		return nil, err
	}
	if bootErr != nil {
		return nil, bootErr
	}
	m.ResetStats()
	return m, nil
}

// mountVFS builds the shared file system and wires it into the kernel
// context. The page-cache regime follows the OS personality unless the
// config pins it: a fused kernel runs one shared page cache, the
// multiple-kernel baselines replicate pages per kernel with DSM messages.
// Mounting is pure construction — no simulated memory traffic, no
// allocator state — so machines that never touch a file behave
// cycle-for-cycle as if the mount did not exist (the pinned full-run
// artifact depends on this).
func (m *Machine) mountVFS(ctx *kernel.Context) error {
	regime := m.Cfg.FileCache
	if regime == vfs.RegimeAuto {
		switch m.Cfg.OS {
		case PopcornTCP, PopcornSHM:
			regime = vfs.RegimePopcorn
		default:
			regime = vfs.RegimeFused
		}
	}
	// The control page (charged dentry/inode probes) sits at a fixed spot
	// in the reserved area right after the messaging rings, outside the
	// buddy allocators — taking it from a kernel allocator here would
	// shift every later allocation and perturb file-free workloads.
	ctrl := m.msgAreaBase() + msgAreaSize
	vcfg := vfs.Config{
		Regime:   regime,
		CtrlPage: ctrl,
		Home:     mem.NodeX86,
		Msgr:     m.Msgr,
		Tracer:   m.Cfg.Tracer,
		Local: func(pt *hw.Port, node mem.NodeID) (mem.PhysAddr, error) {
			return ctx.Kernel(node).AllocZeroedPage(pt)
		},
		FreeLocal: func(pt *hw.Port, node mem.NodeID, pa mem.PhysAddr) error {
			pt.T.Advance(kernel.AllocCost)
			return ctx.Kernel(node).Alloc.Free(pa)
		},
	}
	if regime == vfs.RegimeFused && m.Cfg.Model == mem.Shared {
		// Carve the fused page cache's frame pool out of the CXL shared
		// region, right after the control page, so file pages are equally
		// distant from both ISAs (like the messaging area, this slice relies
		// on shared blocks only being onlined under memory pressure).
		vcfg.PoolBase = ctrl + mem.PageSize
		vcfg.PoolSize = vfsPoolSize
		m.vfsPoolCarved = true
	}
	mnt, err := vfs.NewMount(vcfg)
	if err != nil {
		return err
	}
	mnt.Cache.SetInvalidateHook(ctx.FileInvalidateHook)
	ctx.VFS = mnt
	return nil
}

// attachNIC builds the machine's NIC and transport stack and joins the
// cluster fabric. The rings live in reserved memory right after the VFS
// control page (and frame pool, when one was carved), outside the buddy
// allocators for the same reason the control page is: machines that never
// touch the network must behave cycle-for-cycle as if the NIC were absent.
func (m *Machine) attachNIC(ctx *kernel.Context, pt *hw.Port) {
	base := m.msgAreaBase() + msgAreaSize + mem.PageSize
	if m.vfsPoolCarved {
		base += vfsPoolSize
	}
	m.NIC = net.NewNIC(pt, m.Cfg.MachID, base, net.DefaultNICConfig())
	m.Cfg.Fabric.Attach(m.NIC)
	m.Net = net.NewStack(m.NIC, m.Cfg.Fabric, 0)
	ctx.Net = m.Net
}

// msgAreaBase places the messaging area per §8.2: Separated keeps it in
// the x86 instance's local memory (remote for Arm); Shared puts it in the
// CXL pool (remote for both); FullyShared is all-local so any placement is
// local for both.
func (m *Machine) msgAreaBase() mem.PhysAddr {
	switch m.Cfg.Model {
	case mem.Shared:
		return m.Plat.Layout().SharedRegions()[0].Start
	default:
		// Inside the x86 node's reserved low memory, after 32 MB of kernel
		// image/memmap space.
		return m.Plat.Layout().OwnedRegions(mem.NodeX86)[0].Start + (32 << 20)
	}
}

// MsgAreaSize returns the messaging area footprint.
func (m *Machine) MsgAreaSize() uint64 { return msgAreaSize }

// EngineStats returns the machine's engine driver counters (for a cluster
// machine these are the shared engine's, cluster-wide).
func (m *Machine) EngineStats() sim.EngineStats { return m.Plat.Engine.Stats }

// ResetStats zeroes cache, messenger and task counters (after boot or
// warmup) without disturbing memory or cache contents.
func (m *Machine) ResetStats() {
	m.Plat.Caches.ResetStats()
	if m.Msgr != nil {
		m.Msgr.ResetStats()
	}
}

// TaskSpec describes one task to run.
type TaskSpec struct {
	Name string
	// Origin is the node the task's process originates on.
	Origin mem.NodeID
	// Core is the CPU (on Origin) the task is scheduled on (default 0).
	Core int
	// ProcKey shares one process among specs with the same non-empty key.
	ProcKey string
	// Start is the task thread's starting time.
	Start sim.Cycles
	// Body is the task's work. Errors abort the run.
	Body func(t *kernel.Task) error
	// KeepAlive skips the automatic Exit (page teardown) after Body.
	KeepAlive bool
	// Tenant names the tenant the task's process belongs to (empty =
	// root). Requires a matching Config.Tenants entry.
	Tenant string
}

// Result reports one task's outcome.
type Result struct {
	Name  string
	Start sim.Cycles
	End   sim.Cycles
	Task  *kernel.Task
	Err   error
}

// Elapsed returns the task's simulated duration in cycles.
func (r Result) Elapsed() sim.Cycles { return r.End - r.Start }

// checkSpecs validates task placement against the machine's core counts.
func (m *Machine) checkSpecs(specs []TaskSpec) error {
	for _, s := range specs {
		if s.Core < 0 || s.Core >= m.Sched.Cores(s.Origin) {
			return fmt.Errorf("machine: task %q placed on %v core %d (node has %d cores)",
				s.Name, s.Origin, s.Core, m.Sched.Cores(s.Origin))
		}
	}
	return nil
}

// spawnSetup spawns the process-creation thread for specs; procFor and
// errp are filled when the engine runs it. Process creation runs on the
// origin node's CPU 0 — an Arm-origin process is set up by the Arm kernel
// through Arm caches, not by the x86 boot CPU.
func (m *Machine) spawnSetup(specs []TaskSpec, procFor []*kernel.Process, errp *error) {
	m.Plat.Engine.Spawn("setup", 0, func(th *sim.Thread) {
		var ports [2]*hw.Port
		for i, s := range specs {
			var ten *cap.Tenant
			if s.Tenant != "" {
				if ten = m.Tenant(s.Tenant); ten == nil {
					*errp = fmt.Errorf("machine: task %q names unknown tenant %q", s.Name, s.Tenant)
					return
				}
			}
			if s.ProcKey != "" {
				if p, ok := m.procs[s.ProcKey]; ok && p.Origin == s.Origin {
					if p.Ten != ten {
						*errp = fmt.Errorf("machine: task %q reuses process %q across tenants", s.Name, s.ProcKey)
						return
					}
					procFor[i] = p
					continue
				}
			}
			if ports[s.Origin] == nil {
				ports[s.Origin] = m.Plat.NewPort(s.Origin, 0, th)
			}
			p, err := m.OS.CreateProcess(ports[s.Origin], s.Origin)
			if err != nil {
				*errp = err
				return
			}
			p.Ten = ten
			procFor[i] = p
			if s.ProcKey != "" {
				m.procs[s.ProcKey] = p
			}
		}
	})
}

// spawnTask spawns one task thread, filling res when the engine runs it.
func (m *Machine) spawnTask(s TaskSpec, proc *kernel.Process, res *Result) {
	m.Plat.Engine.Spawn(s.Name, s.Start, func(th *sim.Thread) {
		t := kernel.NewTaskOn(s.Name, proc, m.OS, m.Ctx, th, s.Core)
		res.Name = s.Name
		res.Start = s.Start
		res.Task = t
		m.Sched.Attach(t)
		err := s.Body(t)
		if err == nil && !s.KeepAlive {
			err = t.Exit()
		}
		m.Sched.Detach(t)
		res.Err = err
		res.End = th.Now()
	})
}

// RunTasks creates the tasks' processes, runs all task bodies to
// completion under the simulation engine, and returns per-task results in
// spec order.
func (m *Machine) RunTasks(specs ...TaskSpec) ([]Result, error) {
	if err := m.checkSpecs(specs); err != nil {
		return nil, err
	}

	// Phase 1: create processes in a setup thread.
	var setupErr error
	procFor := make([]*kernel.Process, len(specs))
	m.spawnSetup(specs, procFor, &setupErr)
	if err := m.Plat.Engine.Run(); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}

	// Phase 2: run the tasks.
	results := make([]Result, len(specs))
	for i := range specs {
		m.spawnTask(specs[i], procFor[i], &results[i])
	}
	if err := m.Plat.Engine.Run(); err != nil {
		return results, err
	}
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("machine: task %q: %w", r.Name, r.Err)
		}
	}
	return results, nil
}

// RunSingle is the common case: one task, one fresh process.
func (m *Machine) RunSingle(name string, origin mem.NodeID, body func(*kernel.Task) error) (Result, error) {
	rs, err := m.RunTasks(TaskSpec{Name: name, Origin: origin, Body: body})
	if len(rs) == 1 {
		return rs[0], err
	}
	return Result{}, err
}

// PopcornStats returns the baseline personality's counters (zero value for
// other personalities).
func (m *Machine) PopcornStats() popcorn.Stats {
	if o, ok := m.OS.(*popcorn.OS); ok {
		return o.Stats
	}
	return popcorn.Stats{}
}

// StramashStats returns the fused personality's counters (zero value for
// other personalities).
func (m *Machine) StramashStats() stramash.Stats {
	if o, ok := m.OS.(*stramash.OS); ok {
		return o.Stats
	}
	return stramash.Stats{}
}

// CacheStats returns node n's cache counters.
func (m *Machine) CacheStats(n mem.NodeID) cache.Stats { return m.Plat.Caches.Stats(n) }

// Messages returns the total inter-kernel messages sent so far.
func (m *Machine) Messages() int64 {
	if m.Msgr == nil {
		return 0
	}
	return m.Msgr.Stats().TotalMessages()
}

// FileStats returns the VFS page-cache counters (zero value if the
// machine booted without a filesystem).
func (m *Machine) FileStats() vfs.Stats {
	if m.Ctx == nil || m.Ctx.VFS == nil {
		return vfs.Stats{}
	}
	return m.Ctx.VFS.Stats()
}

// VFS returns the mounted filesystem for direct inspection in tests.
func (m *Machine) VFS() *vfs.Mount { return m.Ctx.VFS }

// NICStats returns the machine's NIC counters (zero when not clustered).
func (m *Machine) NICStats() net.NICStats {
	if m.NIC == nil {
		return net.NICStats{}
	}
	return m.NIC.Stats
}
