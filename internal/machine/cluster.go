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
// shared engine and one fabric; machine i is the fabric's port i. cfgs
// describe only the machine-local knobs.
func NewCluster(cfgs []Config, fcfg net.FabricConfig) (*Cluster, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("machine: empty cluster")
	}
	c := &Cluster{Eng: sim.NewEngine(), Fab: net.NewFabric(fcfg)}
	for i, cfg := range cfgs {
		m, err := boot(cfg, c.Eng, c.Fab, i)
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
	return runTasks(c.Eng, c.Machines, specs)
}

// runTasks is the one task runner; Machine.RunTasks is its one-machine
// case. It runs in two engine runs, and the spawn order fixes every
// thread ID and so every cycle: phase 1 spawns one process-creation
// thread per machine with work, in machine order; phase 2 spawns the
// task threads in spec order.
func runTasks(eng *sim.Engine, ms []*Machine, specs []ClusterTask) ([]Result, error) {
	byMach := make([][]TaskSpec, len(ms))
	for _, s := range specs {
		if s.Mach < 0 || s.Mach >= len(ms) {
			return nil, fmt.Errorf("machine: task %q on machine %d of a %d-machine cluster",
				s.Name, s.Mach, len(ms))
		}
		byMach[s.Mach] = append(byMach[s.Mach], s.TaskSpec)
	}
	for mi, mspecs := range byMach {
		if err := ms[mi].checkSpecs(mspecs); err != nil {
			return nil, err
		}
	}

	setupErrs := make([]error, len(ms))
	procFor := make([][]*kernel.Process, len(ms))
	for mi, mspecs := range byMach {
		if len(mspecs) == 0 {
			continue
		}
		procFor[mi] = make([]*kernel.Process, len(mspecs))
		ms[mi].spawnSetup(mspecs, procFor[mi], &setupErrs[mi])
	}
	runErr := eng.Run()
	for _, err := range setupErrs {
		if err != nil {
			return nil, causeFirst(err, runErr)
		}
	}
	if runErr != nil {
		return nil, runErr
	}

	results := make([]Result, len(specs))
	cursor := make([]int, len(ms))
	for i, s := range specs {
		ms[s.Mach].spawnTask(s.TaskSpec, procFor[s.Mach][cursor[s.Mach]], &results[i])
		cursor[s.Mach]++
	}
	runErr = eng.Run()
	for _, r := range results {
		if r.Err != nil {
			return results, causeFirst(fmt.Errorf("machine: task %q: %w", r.Name, r.Err), runErr)
		}
	}
	return results, runErr
}

// causeFirst reports a thread's own error ahead of the engine error it
// caused: a task that fails leaves its peers waiting forever, and the
// engine's deadlock names only them. Both stay reachable by errors.Is.
func causeFirst(err, runErr error) error {
	if runErr == nil {
		return err
	}
	return fmt.Errorf("%w; then %w", err, runErr)
}

// NICStats returns machine mach's NIC counters.
func (c *Cluster) NICStats(mach int) net.NICStats { return c.Machines[mach].NICStats() }
