package experiments

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// This file is the shared-file experiment: both ISAs hammer one file
// through the VFS page cache, under the two coherence regimes §5 contrasts.
// The fused regime keeps a single page cache in the CXL pool, so an Arm
// read of an x86-written page is a cache-coherent load (snoop cost only);
// the Popcorn baseline replicates pages per kernel and pays a DSM
// fetch/invalidate message round trip for every cross-node transfer. The
// OS personality is pinned to Stramash in both rows so the only axis that
// moves is the page-cache regime itself.

// filesysPath is the shared file both nodes operate on.
const filesysPath = "/data/shared.dat"

// filesysCores is the swept per-node core count; each core on each node
// runs one worker, so the 4-core rows have 8 tasks contending.
var filesysCores = []int{1, 2, 4}

// FilesysRow is one (regime, cores) measurement.
type FilesysRow struct {
	Regime   vfs.Regime
	Cores    int
	Workers  int
	Makespan sim.Cycles // worker phase only (setup and verify excluded)
	Stats    vfs.Stats  // cumulative over all phases
	Messages int64      // inter-kernel messages, all phases
}

// FilesysResult is the experiment output.
type FilesysResult struct {
	FilePages int
	Rounds    int
	Rows      []FilesysRow
}

// filesysRegimes is the swept page-cache regime.
var filesysRegimes = []vfs.Regime{vfs.RegimeFused, vfs.RegimePopcorn}

// filesysFor returns the empty result for one scale: the file size and
// round count every cell runs.
func filesysFor(s Scale) *FilesysResult {
	if s == Full {
		return &FilesysResult{FilePages: 64, Rounds: 4}
	}
	return &FilesysResult{FilePages: 16, Rounds: 2}
}

// Filesys runs the read/write mix under both regimes.
func Filesys(s Scale, rows int) (Result, error) {
	res := filesysFor(s)
	type cell struct {
		regime vfs.Regime
		cores  int
	}
	var cells []cell
	for _, regime := range filesysRegimes {
		for _, cores := range filesysCores {
			cells = append(cells, cell{regime, cores})
		}
	}
	var err error
	if res.Rows, err = forEachRow(rows, cells, func(c cell) (FilesysRow, error) {
		return filesysRun(c.regime, c.cores, res.FilePages, res.Rounds)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// FilesysCells runs the grid's two cells at one core count — fused, then
// popcorn — at scale s, with the same file and rounds as Filesys.
func FilesysCells(cores int, s Scale) (*FilesysResult, error) {
	res := filesysFor(s)
	for _, regime := range filesysRegimes {
		row, err := filesysRun(regime, cores, res.FilePages, res.Rounds)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// filesysRun measures one (regime, cores) cell: an x86 task creates and
// fills the file, one worker per core per node runs the read/write mix,
// and an Arm task mmaps the result and verifies every worker's final
// pattern landed.
func filesysRun(regime vfs.Regime, cores, filePages, rounds int) (FilesysRow, error) {
	m, err := machine.New(machine.Config{
		Model:        mem.Shared,
		OS:           machine.StramashOS,
		FileCache:    regime,
		Cores:        cores,
		Sched:        kernel.SchedTimeSlice,
		SchedQuantum: 20_000,
	})
	if err != nil {
		return FilesysRow{}, err
	}
	workers := 2 * cores
	fileBytes := filePages * mem.PageSize
	span := fileBytes / workers // each worker's private byte range

	// Phase 1: create and fill the file from x86 (every page starts on the
	// writer's node / in the shared pool).
	if _, err := m.RunSingle("fs-setup", mem.NodeX86, func(t *kernel.Task) error {
		if err := t.Mkdir("/data"); err != nil {
			return err
		}
		fd, err := t.CreateFile(filesysPath)
		if err != nil {
			return err
		}
		buf := make([]byte, fileBytes)
		for i := range buf {
			buf[i] = byte(i)
		}
		if _, err := t.WriteFileAt(fd, buf, 0); err != nil {
			return err
		}
		return t.CloseFile(fd)
	}); err != nil {
		return FilesysRow{}, err
	}

	// Phase 2 (timed): the cross-node read/write mix. Worker w owns bytes
	// [w*span, (w+1)*span) — writes are disjoint so the final contents are
	// interleaving-independent — and every round reads the whole file, which
	// is where the two regimes diverge: shared frames vs. DSM round trips.
	specs := make([]machine.TaskSpec, workers)
	for w := 0; w < workers; w++ {
		w := w
		node := mem.NodeID(w % 2)
		specs[w] = machine.TaskSpec{
			Name:   fmt.Sprintf("fs-worker%d", w),
			Origin: node,
			Core:   (w / 2) % cores,
			Body: func(t *kernel.Task) error {
				return filesysWork(t, w, span, fileBytes, rounds)
			},
		}
	}
	results, err := m.RunTasks(specs...)
	if err != nil {
		return FilesysRow{}, err
	}
	var makespan sim.Cycles
	for _, r := range results {
		if r.End > makespan {
			makespan = r.End
		}
	}

	// Phase 3: verify from the Arm side through an mmap of the file — the
	// fault path must deliver exactly what phase 2's WriteFileAt stored,
	// whichever regime carried it.
	if _, err := m.RunSingle("fs-verify", mem.NodeArm, func(t *kernel.Task) error {
		return filesysVerify(t, workers, span, fileBytes, rounds)
	}); err != nil {
		return FilesysRow{}, err
	}

	return FilesysRow{
		Regime:   regime,
		Cores:    cores,
		Workers:  workers,
		Makespan: makespan,
		Stats:    m.FileStats(),
		Messages: m.Messages(),
	}, nil
}

// filesysPattern is worker w's fill byte for a round.
func filesysPattern(w, round int) byte { return byte(0xA0 + w*16 + round) }

// filesysWork is one worker's body: each round stamps its own range and
// streams the whole file back in.
func filesysWork(t *kernel.Task, w, span, fileBytes, rounds int) error {
	fd, err := t.OpenFile(filesysPath, vfs.ORDWR)
	if err != nil {
		return err
	}
	own := make([]byte, span)
	page := make([]byte, mem.PageSize)
	for r := 0; r < rounds; r++ {
		for i := range own {
			own[i] = filesysPattern(w, r)
		}
		if _, err := t.WriteFileAt(fd, own, int64(w*span)); err != nil {
			return err
		}
		var sum uint64
		for off := 0; off < fileBytes; off += mem.PageSize {
			n, err := t.ReadFileAt(fd, page, int64(off))
			if err != nil {
				return err
			}
			for i := 0; i < n; i += 64 {
				sum += uint64(page[i])
			}
		}
		if sum == 0 {
			return fmt.Errorf("experiments: filesys worker %d read an all-zero file", w)
		}
		t.Compute(5_000)
	}
	return t.CloseFile(fd)
}

// filesysVerify mmaps the file and checks every worker's final-round
// pattern through plain loads.
func filesysVerify(t *kernel.Task, workers, span, fileBytes, rounds int) error {
	fd, err := t.OpenFile(filesysPath, vfs.ORead)
	if err != nil {
		return err
	}
	base, err := t.MmapFile(fd, uint64(fileBytes), kernel.VMARead, 0)
	if err != nil {
		return err
	}
	for w := 0; w < workers; w++ {
		want := filesysPattern(w, rounds-1)
		for _, off := range []int{w * span, w*span + span - 8} {
			v, err := t.Load(base+pgtable.VirtAddr(off), 1)
			if err != nil {
				return err
			}
			if byte(v) != want {
				return fmt.Errorf("experiments: filesys byte %d = %#x, want %#x (worker %d)",
					off, byte(v), want, w)
			}
		}
	}
	return t.CloseFile(fd)
}

// Name implements Result.
func (r *FilesysResult) Name() string { return "Shared-file I/O: fused vs. Popcorn page cache" }

// Render implements Result.
func (r *FilesysResult) Render() string {
	tw := &tableWriter{header: []string{"regime", "cores/node", "makespan (cyc)", "hits", "misses", "writebacks", "invalidations", "msg cycles"}}
	for _, row := range r.Rows {
		st := row.Stats
		tw.addRow(
			row.Regime.String(),
			fmt.Sprintf("%d", row.Cores),
			fmt.Sprintf("%d", int64(row.Makespan)),
			fmt.Sprintf("%d", st.Hits[0]+st.Hits[1]),
			fmt.Sprintf("%d", st.Misses[0]+st.Misses[1]),
			fmt.Sprintf("%d", st.Writebacks[0]+st.Writebacks[1]),
			fmt.Sprintf("%d", st.Invalidations[0]+st.Invalidations[1]),
			fmt.Sprintf("%d", int64(st.TotalMsgCycles())),
		)
	}
	return fmt.Sprintf("one %d-page file, %d rounds of disjoint writes + whole-file reads from both ISAs (Stramash kernel, page-cache regime swept)\n%s",
		r.FilePages, r.Rounds, tw.String())
}

// row looks up a (regime, cores) cell.
func (r *FilesysResult) row(regime vfs.Regime, cores int) (FilesysRow, bool) {
	return find(r.Rows, func(row FilesysRow) bool { return row.Regime == regime && row.Cores == cores })
}

// CellErrors is the per-cell check: the cell's regime shows its signature
// traffic — page-cache hits under fused, DSM writebacks and invalidations
// under popcorn.
func (r *FilesysResult) CellErrors(row FilesysRow) []string {
	var errs []string
	st := row.Stats
	switch row.Regime {
	case vfs.RegimeFused:
		if st.Hits[0]+st.Hits[1] == 0 {
			errs = append(errs, fmt.Sprintf("%d-core fused run saw no page-cache hits", row.Cores))
		}
	case vfs.RegimePopcorn:
		if st.Writebacks[0]+st.Writebacks[1] == 0 {
			errs = append(errs, fmt.Sprintf("%d-core popcorn run saw no DSM writebacks", row.Cores))
		}
		if st.Invalidations[0]+st.Invalidations[1] == 0 {
			errs = append(errs, fmt.Sprintf("%d-core popcorn run saw no DSM invalidations", row.Cores))
		}
	}
	return errs
}

// ShapeErrors implements Result: the fused page cache must beat the DSM
// replica scheme on cross-ISA sharing — fewer messaging cycles and a
// shorter makespan at every core count — and every cell passes
// CellErrors.
func (r *FilesysResult) ShapeErrors() []string {
	var errs []string
	for _, cores := range filesysCores {
		f, okF := r.row(vfs.RegimeFused, cores)
		p, okP := r.row(vfs.RegimePopcorn, cores)
		if !okF || !okP {
			errs = append(errs, fmt.Sprintf("missing row at %d cores", cores))
			continue
		}
		if f.Makespan >= p.Makespan {
			errs = append(errs, fmt.Sprintf("%d-core fused makespan %d does not beat popcorn %d",
				cores, f.Makespan, p.Makespan))
		}
		if f.Stats.TotalMsgCycles() >= p.Stats.TotalMsgCycles() {
			errs = append(errs, fmt.Sprintf("%d-core fused msg cycles %d not below popcorn %d",
				cores, f.Stats.TotalMsgCycles(), p.Stats.TotalMsgCycles()))
		}
		errs = append(errs, r.CellErrors(f)...)
		errs = append(errs, r.CellErrors(p)...)
	}
	return errs
}

// Metrics implements CycleMetrics: makespans, per-node page-cache
// counters, and messaging cycles for every cell.
func (r *FilesysResult) Metrics() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		base := fmt.Sprintf("%s/%dcores", row.Regime, row.Cores)
		m["cycles/"+base] = int64(row.Makespan)
		m["msg_cycles/"+base] = int64(row.Stats.TotalMsgCycles())
		m["meta_rpcs/"+base] = row.Stats.MetaRPCs
		m["messages/"+base] = row.Messages
		for n := 0; n < 2; n++ {
			node := mem.NodeID(n)
			m[fmt.Sprintf("hits/%s/%v", base, node)] = row.Stats.Hits[n]
			m[fmt.Sprintf("misses/%s/%v", base, node)] = row.Stats.Misses[n]
			m[fmt.Sprintf("writebacks/%s/%v", base, node)] = row.Stats.Writebacks[n]
			m[fmt.Sprintf("invalidations/%s/%v", base, node)] = row.Stats.Invalidations[n]
		}
	}
	return m
}
