package experiments

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// This file is the multi-core scaling experiment: the first workload that
// exercises machine.Config.Cores as a load-bearing axis. One process
// clone()s multicoreWorkers sibling tasks onto the x86 node's cores under
// the strict time-slicing scheduler; each worker streams over a private
// slice of the shared address space and computes. With one core the
// workers round-robin on one run queue; with more cores the same work
// spreads out, so the makespan must shrink and every configured core's
// private caches must see traffic.

// multicoreWorkers is the fixed worker count; core counts sweep below it
// so the 1- and 2-core points oversubscribe their run queues.
const multicoreWorkers = 4

// multicoreCores is the swept axis.
var multicoreCores = []int{1, 2, 4}

// MulticoreRow is one core-count measurement.
type MulticoreRow struct {
	Cores    int
	Makespan sim.Cycles
	// Wall is the main task's whole elapsed time (setup + timed region);
	// per-core utilization is measured against it, since every CPU's busy
	// cycles fall inside this window under the strict policy.
	Wall        sim.Cycles
	Speedup     float64 // makespan(1 core) / makespan(this row)
	Preemptions int64   // quantum-expiry context switches, summed over cores
	Dispatches  int64   // scheduler dispatches, summed over cores
	CoreBusy    []sim.Cycles
	CoreL1D     []int64 // per-core L1D accesses (proof the core ran)
}

// MulticoreResult is the experiment output.
type MulticoreResult struct {
	Workers int
	Rows    []MulticoreRow
}

// Multicore runs the scaling sweep.
func Multicore(s Scale, rows int) (Result, error) {
	bufBytes := 64 << 10
	compute := int64(60_000)
	passes := 2
	if s == Full {
		bufBytes = 256 << 10
		compute = 200_000
		passes = 4
	}
	res := &MulticoreResult{Workers: multicoreWorkers}
	var err error
	if res.Rows, err = forEachRow(rows, multicoreCores, func(cores int) (MulticoreRow, error) {
		return multicoreRun(cores, bufBytes, compute, passes)
	}); err != nil {
		return nil, err
	}
	base := float64(res.Rows[0].Makespan)
	for i := range res.Rows {
		res.Rows[i].Speedup = ratio(base, float64(res.Rows[i].Makespan))
	}
	return res, nil
}

// multicoreRun measures one core-count row on its own isolated machine.
func multicoreRun(cores, bufBytes int, compute int64, passes int) (MulticoreRow, error) {
	m, err := machine.New(machine.Config{
		Model:        mem.Shared,
		OS:           machine.StramashOS,
		Cores:        cores,
		Sched:        kernel.SchedTimeSlice,
		SchedQuantum: 20_000,
	})
	if err != nil {
		return MulticoreRow{}, err
	}
	row := MulticoreRow{Cores: cores}
	r, err := m.RunSingle("mt-main", mem.NodeX86, func(main *kernel.Task) error {
		base, err := main.Proc.Mmap(uint64(multicoreWorkers*bufBytes), kernel.VMARead|kernel.VMAWrite, "mt-buf")
		if err != nil {
			return err
		}
		main.BeginTimed()
		kids := make([]*kernel.ClonedTask, 0, multicoreWorkers)
		for i := 0; i < multicoreWorkers; i++ {
			wbase := base + pgtable.VirtAddr(i*bufBytes)
			c, err := main.Clone(fmt.Sprintf("mt-worker%d", i), i%cores, func(w *kernel.Task) error {
				return multicoreWork(w, wbase, bufBytes, passes, compute)
			})
			if err != nil {
				return err
			}
			kids = append(kids, c)
		}
		for _, c := range kids {
			if err := c.Join(main); err != nil {
				return err
			}
		}
		row.Makespan = main.TimedCycles()
		return nil
	})
	if err != nil {
		return MulticoreRow{}, err
	}
	row.Wall = r.Elapsed()
	for c := 0; c < cores; c++ {
		cpu := m.Sched.CPUOf(mem.NodeX86, c)
		row.Preemptions += cpu.Preemptions
		row.Dispatches += cpu.Dispatches
		row.CoreBusy = append(row.CoreBusy, cpu.Busy)
		row.CoreL1D = append(row.CoreL1D, m.Plat.Caches.CoreStats(mem.NodeX86, c).L1DAccesses)
	}
	return row, nil
}

// multicoreWork is one worker's body: first-touch a private buffer, then
// stream reads with a compute phase per pass.
func multicoreWork(t *kernel.Task, base pgtable.VirtAddr, bufBytes, passes int, compute int64) error {
	for off := 0; off < bufBytes; off += 8 {
		if err := t.Store(base+pgtable.VirtAddr(off), 8, uint64(off)+1); err != nil {
			return err
		}
	}
	var sum uint64
	for p := 0; p < passes; p++ {
		for off := 0; off < bufBytes; off += 8 {
			v, err := t.Load(base+pgtable.VirtAddr(off), 8)
			if err != nil {
				return err
			}
			sum += v
		}
		t.Compute(compute / int64(passes))
	}
	if sum == 0 {
		return fmt.Errorf("experiments: multicore worker checksum is zero")
	}
	return nil
}

// Name implements Result.
func (r *MulticoreResult) Name() string { return "Multi-core scaling" }

// Render implements Result.
func (r *MulticoreResult) Render() string {
	tw := &tableWriter{header: []string{"cores", "makespan (cyc)", "speedup", "preempt", "core L1D accesses"}}
	for _, row := range r.Rows {
		l1d := make([]string, len(row.CoreL1D))
		for i, v := range row.CoreL1D {
			l1d[i] = fmt.Sprintf("%d", v)
		}
		tw.addRow(
			fmt.Sprintf("%d", row.Cores),
			fmt.Sprintf("%d", int64(row.Makespan)),
			f2(row.Speedup),
			fmt.Sprintf("%d", row.Preemptions),
			strings.Join(l1d, " "),
		)
	}
	return fmt.Sprintf("%d workers cloned into one process, x86 cores swept (Stramash, strict time-slicing)\n%s",
		r.Workers, tw.String())
}

// ShapeErrors implements Result: the makespan must scale with cores and
// every configured core must have been exercised.
func (r *MulticoreResult) ShapeErrors() []string {
	var errs []string
	byCores := map[int]MulticoreRow{}
	for _, row := range r.Rows {
		byCores[row.Cores] = row
		for c, v := range row.CoreL1D {
			if v == 0 {
				errs = append(errs, fmt.Sprintf("%d-core run left core %d idle (no L1D accesses)", row.Cores, c))
			}
		}
	}
	if row, ok := byCores[1]; ok && row.Preemptions == 0 {
		errs = append(errs, "1-core run with 4 workers saw no preemptions (time-slicing inert)")
	}
	s2, s4 := byCores[2].Speedup, byCores[4].Speedup
	if s2 < 1.5 {
		errs = append(errs, fmt.Sprintf("2-core speedup %.2f < 1.5", s2))
	}
	if s4 <= s2 {
		errs = append(errs, fmt.Sprintf("4-core speedup %.2f does not exceed 2-core %.2f", s4, s2))
	}
	return errs
}

// Metrics implements CycleMetrics: makespans, speedups, and per-core
// utilization (busy cycles / whole-run wall time, in basis points).
func (r *MulticoreResult) Metrics() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		base := fmt.Sprintf("%dcores", row.Cores)
		m["cycles/"+base] = int64(row.Makespan)
		m["speedup_bp/"+base] = int64(row.Speedup * 10000)
		m["preemptions/"+base] = row.Preemptions
		m["dispatches/"+base] = row.Dispatches
		for c, busy := range row.CoreBusy {
			util := int64(0)
			if row.Wall > 0 {
				util = int64(float64(busy) / float64(row.Wall) * 10000)
			}
			m[fmt.Sprintf("util_bp/%s/core%d", base, c)] = util
			m[fmt.Sprintf("l1d/%s/core%d", base, c)] = row.CoreL1D[c]
		}
	}
	return m
}
