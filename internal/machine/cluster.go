package machine

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/net"
	"repro/internal/sim"
)

// Cluster is N machines joined by one switch fabric inside one simulated
// clock universe: a single engine drives every machine's threads, so
// cross-machine interactions (frames, doorbell IPIs, switch arbitration)
// are ordered by simulated time exactly as within-machine ones are.
type Cluster struct {
	Machines []*Machine
	Fab      *net.Fabric
	Eng      *sim.Engine
}

// NewCluster builds and boots the machines of cfgs, in order, on one
// shared engine and one fabric. The per-machine cluster fields
// (SharedEngine, Fabric, MachID) are assigned here — cfgs describe only
// the machine-local knobs.
func NewCluster(cfgs []Config, fcfg net.FabricConfig) (*Cluster, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("machine: empty cluster")
	}
	c := &Cluster{Eng: sim.NewEngine(), Fab: net.NewFabric(fcfg)}
	for i, cfg := range cfgs {
		cfg.SharedEngine = c.Eng
		cfg.Fabric = c.Fab
		cfg.MachID = i
		m, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("machine: booting cluster machine %d: %w", i, err)
		}
		c.Machines = append(c.Machines, m)
	}
	return c, nil
}

// ClusterTask is a TaskSpec pinned to one machine of the cluster.
type ClusterTask struct {
	Mach int
	TaskSpec
}

// EngineStats returns the shared engine's accumulated driver counters.
func (c *Cluster) EngineStats() sim.EngineStats { return c.Eng.Stats }

// RunTasks creates each task's process on its machine, runs all bodies to
// completion under the shared engine, and returns per-task results in
// spec order. Tasks on different machines overlap in simulated time and
// talk over the fabric through the socket syscalls.
func (c *Cluster) RunTasks(specs ...ClusterTask) ([]Result, error) {
	byMach := make([][]TaskSpec, len(c.Machines))
	for _, s := range specs {
		if s.Mach < 0 || s.Mach >= len(c.Machines) {
			return nil, fmt.Errorf("machine: task %q on machine %d of a %d-machine cluster",
				s.Name, s.Mach, len(c.Machines))
		}
		byMach[s.Mach] = append(byMach[s.Mach], s.TaskSpec)
	}
	for mi, ms := range byMach {
		if err := c.Machines[mi].checkSpecs(ms); err != nil {
			return nil, err
		}
	}

	// Phase 1: one setup thread per machine with work, one engine run.
	setupErrs := make([]error, len(c.Machines))
	procFor := make([][]*kernel.Process, len(c.Machines))
	for mi, ms := range byMach {
		if len(ms) == 0 {
			continue
		}
		procFor[mi] = make([]*kernel.Process, len(ms))
		c.Machines[mi].spawnSetup(ms, procFor[mi], &setupErrs[mi])
	}
	if err := c.Eng.Run(); err != nil {
		return nil, err
	}
	for _, err := range setupErrs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: spawn every task thread in spec order, one engine run.
	results := make([]Result, len(specs))
	cursor := make([]int, len(c.Machines))
	for i, s := range specs {
		c.Machines[s.Mach].spawnTask(s.TaskSpec, procFor[s.Mach][cursor[s.Mach]], &results[i])
		cursor[s.Mach]++
	}
	if err := c.Eng.Run(); err != nil {
		return results, err
	}
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("machine: task %q: %w", r.Name, r.Err)
		}
	}
	return results, nil
}

// ResetStats zeroes every machine's counters, including NIC stats.
func (c *Cluster) ResetStats() {
	for _, m := range c.Machines {
		m.ResetStats()
		if m.NIC != nil {
			m.NIC.Stats = net.NICStats{}
		}
	}
}

// NICStats returns machine mach's NIC counters.
func (c *Cluster) NICStats(mach int) net.NICStats { return c.Machines[mach].NICStats() }
