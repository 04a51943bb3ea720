// Package perf is the reproduction's perf+icount tooling (§7.3, §9.1.2):
// it reads the per-node instruction and cycle counters that tasks collect,
// approximates cycle counts from instruction counts the way the paper's
// validation does (simulator icount × natively measured IPC per node), and
// renders the per-run breakdowns and artifact-style counter dumps.
package perf

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// NodePerf is one node's counters from one run: what `perf stat` reports
// on the physical machine, or the icount tool on the simulator.
type NodePerf struct {
	Instructions int64
	Cycles       sim.Cycles
}

// IPC returns instructions per cycle (0 when idle).
func (n NodePerf) IPC() float64 {
	if n.Cycles == 0 {
		return 0
	}
	return float64(n.Instructions) / float64(n.Cycles)
}

// Profile is a whole run's per-node perf data.
type Profile struct {
	Node [2]NodePerf
}

// Collect builds a profile from a finished task's counters.
func Collect(t *kernel.Task) Profile {
	var p Profile
	for n := 0; n < 2; n++ {
		p.Node[n] = NodePerf{
			Instructions: t.Stats.NodeInstructions[n],
			Cycles:       t.NodeTime(mem.NodeID(n)),
		}
	}
	return p
}

// TotalCycles is the paper's runtime formula (§A.5): x86 runtime + Arm
// runtime.
func (p Profile) TotalCycles() sim.Cycles {
	return p.Node[0].Cycles + p.Node[1].Cycles
}

// TotalInstructions sums both nodes' retired instructions.
func (p Profile) TotalInstructions() int64 {
	return p.Node[0].Instructions + p.Node[1].Instructions
}

// EstimateCycles performs the §9.1.2 icount approximation: the simulator's
// per-node instruction counts are scaled by the IPC measured natively on
// the corresponding physical machine, yielding estimated cycles that are
// then compared against the native cycle counts.
func EstimateCycles(simProfile Profile, nativeIPC [2]float64) sim.Cycles {
	var est float64
	for n := 0; n < 2; n++ {
		if nativeIPC[n] <= 0 {
			continue
		}
		est += float64(simProfile.Node[n].Instructions) / nativeIPC[n]
	}
	return sim.Cycles(est)
}

// RelativeError returns |est-actual|/actual.
func RelativeError(est, actual sim.Cycles) float64 {
	if actual == 0 {
		return 0
	}
	d := float64(est - actual)
	if d < 0 {
		d = -d
	}
	return d / float64(actual)
}

// Breakdown splits a task's elapsed cycles into the paper's Figure 9
// overhead classes: instruction execution (INST), memory access (MEM),
// fault/DSM handling including messaging (MSG), and migration.
type Breakdown struct {
	Total     sim.Cycles
	Inst      sim.Cycles
	Mem       sim.Cycles
	Msg       sim.Cycles
	Migration sim.Cycles
	Other     sim.Cycles
}

// BreakdownOf classifies a stats delta.
func BreakdownOf(st kernel.TaskStats, total sim.Cycles) Breakdown {
	b := Breakdown{
		Total:     total,
		Inst:      st.ComputeCycles,
		Mem:       st.MemAccessCycles - st.FaultCycles,
		Msg:       st.FaultCycles,
		Migration: st.MigrationCycles,
	}
	if b.Mem < 0 {
		b.Mem = 0
	}
	b.Other = total - b.Inst - b.Mem - b.Msg - b.Migration
	if b.Other < 0 {
		b.Other = 0
	}
	return b
}

// String renders the breakdown as percentages.
func (b Breakdown) String() string {
	pct := func(c sim.Cycles) float64 {
		if b.Total == 0 {
			return 0
		}
		return 100 * float64(c) / float64(b.Total)
	}
	return fmt.Sprintf("INST %.1f%% | MEM %.1f%% | MSG %.1f%% | MIG %.1f%% | other %.1f%%",
		pct(b.Inst), pct(b.Mem), pct(b.Msg), pct(b.Migration), pct(b.Other))
}

// ArtifactDump renders one node's cache counters in the format of the
// paper's artifact example output (§A.5), so runs can be eyeballed against
// the original tooling.
func ArtifactDump(name string, st cache.Stats, ipis int64, runtime sim.Cycles) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", name)
	fmt.Fprintf(&sb, "L1 Cache Hit Rate: %.2f%%\n", 100*cache.HitRate(st.L1DHits+st.L1IHits, st.L1DAccesses+st.L1IAccesses))
	fmt.Fprintf(&sb, "L2 Cache Hit Rate: %.2f%%\n", 100*cache.HitRate(st.L2Hits, st.L2Accesses))
	fmt.Fprintf(&sb, "L3 Cache Hit Rate: %.2f%%\n", 100*cache.HitRate(st.L3Hits, st.L3Accesses))
	fmt.Fprintf(&sb, "L1 Cache Hits: %d\n", st.L1DHits+st.L1IHits)
	fmt.Fprintf(&sb, "L2 Cache Hits: %d\n", st.L2Hits)
	fmt.Fprintf(&sb, "L3 Cache Hits: %d\n", st.L3Hits)
	fmt.Fprintf(&sb, "L1 Cache Accesses: %d\n", st.L1DAccesses+st.L1IAccesses)
	fmt.Fprintf(&sb, "L2 Cache Accesses: %d\n", st.L2Accesses)
	fmt.Fprintf(&sb, "L3 Cache Accesses: %d\n", st.L3Accesses)
	fmt.Fprintf(&sb, "IPI: %d\n", ipis)
	fmt.Fprintf(&sb, "Local Memory Hits: %d\n", st.LocalMemHits)
	fmt.Fprintf(&sb, "Remote Memory Hits: %d\n", st.RemoteMemHits)
	fmt.Fprintf(&sb, "Remote Shared Memory Hits: %d\n", st.RemoteSharedHits)
	fmt.Fprintf(&sb, "Number of mem_access: %d\n", st.MemAccesses)
	fmt.Fprintf(&sb, "Runtime: %d\n", int64(runtime))
	return sb.String()
}
