package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/microbench"
	"repro/internal/sim"
	"repro/internal/stramash"
)

// ---------------------------------------------------------------- Table 4

// Table4Row is one slice-size measurement.
type Table4Row struct {
	Pages      int64
	X86Offline float64 // milliseconds
	X86Online  float64
	ArmOffline float64
	ArmOnline  float64
}

// Table4Result reproduces the global-allocator overhead table.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 measures offline/online costs for slice sizes of 2^15..2^20
// pages on both kernels. Quick scale stops at 2^17.
func Table4(scale Scale) (*Table4Result, error) {
	r := &Table4Result{}
	maxExp := 20
	if scale == Quick {
		maxExp = 17
	}
	for exp := 15; exp <= maxExp; exp++ {
		pages := int64(1) << exp
		row := Table4Row{Pages: pages}
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
		if err != nil {
			return nil, err
		}
		so, ok := m.OS.(*stramash.OS)
		if !ok {
			return nil, fmt.Errorf("table4: not a stramash machine")
		}
		// Rebuild the allocator with the requested slice size.
		cfg := stramash.DefaultGlobalConfig()
		cfg.BlockSize = uint64(pages) * mem.PageSize
		g := stramash.NewGlobalAllocator(so.Ctx, cfg)
		blocks := g.Blocks()
		if len(blocks) == 0 {
			return nil, fmt.Errorf("table4: pool too small for %d pages", pages)
		}

		var herr error
		m.Plat.Engine.Spawn("table4", 0, func(th *sim.Thread) {
			for n := 0; n < 2; n++ {
				node := mem.NodeID(n)
				pt := m.Plat.NewPort(node, 0, th)
				clock := m.Plat.Clock(node)
				blk := g.BlockAt(0)

				start := th.Now()
				if herr = g.Online(pt, node, blk); herr != nil {
					return
				}
				online := clock.Millis(th.Now() - start)

				start = th.Now()
				if herr = g.Offline(pt, blk); herr != nil {
					return
				}
				offline := clock.Millis(th.Now() - start)
				if node == mem.NodeX86 {
					row.X86Online, row.X86Offline = online, offline
				} else {
					row.ArmOnline, row.ArmOffline = online, offline
				}
			}
		})
		if err := m.Plat.Engine.Run(); err != nil {
			return nil, err
		}
		if herr != nil {
			return nil, herr
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Name implements Result.
func (r *Table4Result) Name() string { return "Table 4: global memory allocator overheads" }

// Render implements Result.
func (r *Table4Result) Render() string {
	tw := &tableWriter{header: []string{"Num of Pages", "x86 Offline", "x86 Online", "arm Offline", "arm Online"}}
	for _, row := range r.Rows {
		tw.addRow(fmt.Sprintf("2^%d (%d)", log2(row.Pages), row.Pages),
			fmt.Sprintf("%.1fms", row.X86Offline), fmt.Sprintf("%.1fms", row.X86Online),
			fmt.Sprintf("%.1fms", row.ArmOffline), fmt.Sprintf("%.1fms", row.ArmOnline))
	}
	return tw.String()
}

func log2(v int64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// ShapeErrors implements Result: costs scale ~linearly with pages, offline
// costs more than online on x86, and the magnitudes sit in Table 4's
// millisecond range.
func (r *Table4Result) ShapeErrors() []string {
	var errs []string
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		for _, c := range []struct {
			name string
			a, b float64
		}{
			{"x86 offline", prev.X86Offline, cur.X86Offline},
			{"x86 online", prev.X86Online, cur.X86Online},
			{"arm offline", prev.ArmOffline, cur.ArmOffline},
			{"arm online", prev.ArmOnline, cur.ArmOnline},
		} {
			if c.b <= c.a {
				errs = append(errs, fmt.Sprintf("%s did not grow from 2^%d to 2^%d pages", c.name, log2(prev.Pages), log2(cur.Pages)))
			}
		}
	}
	for _, row := range r.Rows {
		if row.X86Offline <= row.X86Online {
			errs = append(errs, fmt.Sprintf("x86 offline (%.1fms) not above online (%.1fms) at %d pages",
				row.X86Offline, row.X86Online, row.Pages))
		}
		if row.X86Offline <= row.ArmOffline {
			errs = append(errs, fmt.Sprintf("x86 offline (%.1fms) not above arm offline (%.1fms) at %d pages (Table 4 shape)",
				row.X86Offline, row.ArmOffline, row.Pages))
		}
	}
	return errs
}

// -------------------------------------------------------------- Figure 11

// Figure11Cell is one scenario × system measurement.
type Figure11Cell struct {
	Scenario string // Vanilla, RaO, RaO-NC, OaR, OaR-NC
	System   string // Popcorn-SHM, Stramash-<model>
	Cycles   sim.Cycles
}

// Figure11Result is the memory-access cost analysis (§9.2.4).
type Figure11Result struct {
	Cells []Figure11Cell
}

// figure11QuickL3 is Figure 11's L3 at Quick scale.
const figure11QuickL3 = 256 << 10

// Figure11 measures the five access scenarios on Popcorn-SHM and on
// Stramash under the Shared and FullyShared models.
// The buffer must exceed the L3 (the paper uses 10 MB against 4 MB);
// Quick scale keeps the same ratio with a 1 MB buffer over a 256 KiB L3.
func Figure11(scale Scale) (*Figure11Result, error) {
	p := microbench.DefaultMemAccessParams()
	p.Bytes = 10 << 20
	l3 := 0 // default 4 MB
	if scale == Quick {
		p.Bytes = 1 << 20
		l3 = figure11QuickL3
	}
	systems := []struct {
		label string
		os    machine.OSKind
		model mem.Model
	}{
		{"Popcorn-SHM", machine.PopcornSHM, mem.Shared},
		{"Stramash-Shared", machine.StramashOS, mem.Shared},
		{"Stramash-Separated", machine.StramashOS, mem.Separated},
		{"Stramash-FullyShared", machine.StramashOS, mem.FullyShared},
	}
	scenarios := []struct {
		label  string
		dir    microbench.Direction
		noCold bool
	}{
		{"Vanilla", microbench.VanillaDir, false},
		{"RaO", microbench.RemoteAccessOrigin, false},
		{"RaO-NC", microbench.RemoteAccessOrigin, true},
		{"OaR", microbench.OriginAccessRemote, false},
		{"OaR-NC", microbench.OriginAccessRemote, true},
	}
	r := &Figure11Result{}
	for _, sys := range systems {
		for _, sc := range scenarios {
			m, err := machine.New(machine.Config{Model: sys.model, OS: sys.os, L3Size: l3})
			if err != nil {
				return nil, err
			}
			pp := p
			pp.NoCold = sc.noCold
			res, err := microbench.RunMemAccess(m, pp, sc.dir)
			if err != nil {
				return nil, fmt.Errorf("figure11 %s/%s: %w", sys.label, sc.label, err)
			}
			r.Cells = append(r.Cells, Figure11Cell{Scenario: sc.label, System: sys.label, Cycles: res.Cycles})
		}
	}
	return r, nil
}

// Cell finds one measurement.
func (r *Figure11Result) Cell(scenario, system string) (Figure11Cell, bool) {
	return find(r.Cells, func(c Figure11Cell) bool { return c.Scenario == scenario && c.System == system })
}

// Name implements Result.
func (r *Figure11Result) Name() string { return "Figure 11: memory access analysis" }

// Render implements Result.
func (r *Figure11Result) Render() string {
	tw := &tableWriter{header: []string{"Scenario", "System", "cycles"}}
	for _, c := range r.Cells {
		tw.addRow(c.Scenario, c.System, fi(int64(c.Cycles)))
	}
	return tw.String()
}

// ShapeErrors implements Result: §9.2.4's claims.
func (r *Figure11Result) ShapeErrors() []string {
	var errs []string
	// Cold RaO: Stramash-Shared beats SHM (up to 2.5x in the paper) and
	// Stramash-FullyShared beats it harder (up to 4.5x).
	shm, _ := r.Cell("RaO", "Popcorn-SHM")
	strShared, _ := r.Cell("RaO", "Stramash-Shared")
	strFS, _ := r.Cell("RaO", "Stramash-FullyShared")
	if strShared.Cycles >= shm.Cycles {
		errs = append(errs, fmt.Sprintf("cold RaO: Stramash-Shared (%d) not faster than SHM (%d)", strShared.Cycles, shm.Cycles))
	}
	if strFS.Cycles >= strShared.Cycles {
		errs = append(errs, fmt.Sprintf("cold RaO: FullyShared (%d) not faster than Shared (%d)", strFS.Cycles, strShared.Cycles))
	}
	// Warm (No Cold): Popcorn's local replicas win over Stramash's remote
	// accesses on the Shared model — the §9.2.4 takeaway trade-off.
	shmNC, _ := r.Cell("RaO-NC", "Popcorn-SHM")
	strNC, _ := r.Cell("RaO-NC", "Stramash-Shared")
	if shmNC.Cycles >= strNC.Cycles {
		errs = append(errs, fmt.Sprintf("warm RaO: SHM replicas (%d) not faster than Stramash remote access (%d) — takeaway trade-off missing",
			shmNC.Cycles, strNC.Cycles))
	}
	return errs
}

// -------------------------------------------------------------- Figure 12

// Figure12Row is one cacheline-count measurement.
type Figure12Row struct {
	Lines      int
	DSMPerPage float64 // Popcorn cycles per page consumed
	HWPerPage  float64 // Stramash cycles per page consumed
	Ratio      float64
}

// Figure12Result is the software-vs-hardware consistency comparison.
type Figure12Result struct {
	Rows []Figure12Row
}

// Figure12 sweeps access granularity from 1 to 64 cache lines per page.
func Figure12(scale Scale) (*Figure12Result, error) {
	pages := 64
	if scale == Quick {
		pages = 16
	}
	r := &Figure12Result{}
	for _, lines := range []int{1, 2, 4, 8, 16, 32, 64} {
		mp, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.PopcornSHM})
		if err != nil {
			return nil, err
		}
		dsm, err := microbench.RunGranularity(mp, microbench.GranularityParams{Lines: lines, Pages: pages})
		if err != nil {
			return nil, fmt.Errorf("figure12 dsm %d lines: %w", lines, err)
		}
		ms, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
		if err != nil {
			return nil, err
		}
		hw, err := microbench.RunGranularity(ms, microbench.GranularityParams{Lines: lines, Pages: pages})
		if err != nil {
			return nil, fmt.Errorf("figure12 hw %d lines: %w", lines, err)
		}
		r.Rows = append(r.Rows, Figure12Row{
			Lines:      lines,
			DSMPerPage: dsm.PerPage,
			HWPerPage:  hw.PerPage,
			Ratio:      ratio(dsm.PerPage, hw.PerPage),
		})
	}
	return r, nil
}

// Name implements Result.
func (r *Figure12Result) Name() string { return "Figure 12: page access at cacheline granularity" }

// Render implements Result.
func (r *Figure12Result) Render() string {
	tw := &tableWriter{header: []string{"Lines", "DSM cyc/page", "HW cyc/page", "DSM/HW"}}
	for _, row := range r.Rows {
		tw.addRow(fi(int64(row.Lines)), f1(row.DSMPerPage), f1(row.HWPerPage), f1(row.Ratio))
	}
	return tw.String()
}

// ShapeErrors implements Result: huge DSM overhead at one line, collapsing
// to small multiples at a full page (§9.2.5: >300x at 64 B, ~2x at 4 KiB).
func (r *Figure12Result) ShapeErrors() []string {
	var errs []string
	if len(r.Rows) < 2 {
		return []string{"figure12: too few rows"}
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Ratio < 20 {
		errs = append(errs, fmt.Sprintf("1-line DSM/HW ratio %.1fx not ≫ 1 (paper >300x)", first.Ratio))
	}
	if last.Ratio > 8 {
		errs = append(errs, fmt.Sprintf("64-line DSM/HW ratio %.1fx did not collapse (paper ≈ 2x)", last.Ratio))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Ratio > r.Rows[i-1].Ratio*1.05 {
			errs = append(errs, fmt.Sprintf("ratio rose from %.1f to %.1f between %d and %d lines",
				r.Rows[i-1].Ratio, r.Rows[i].Ratio, r.Rows[i-1].Lines, r.Rows[i].Lines))
		}
	}
	return errs
}

// -------------------------------------------------------------- Figure 13

// Figure13Row is one loop-count measurement.
type Figure13Row struct {
	Loops           int
	OptimizedCycles sim.Cycles // Stramash fused futex
	RegularCycles   sim.Cycles // origin-managed protocol (Popcorn)
	Speedup         float64
}

// Figure13Result is the futex experiment.
type Figure13Result struct {
	Rows []Figure13Row
}

// Figure13 runs the lock/unlock ping-pong at increasing loop counts under
// the fused futex (optimized) and the origin-managed protocol (regular).
func Figure13(scale Scale) (*Figure13Result, error) {
	counts := []int{100, 200, 400, 800}
	if scale == Quick {
		counts = []int{50, 100}
	}
	r := &Figure13Result{}
	for _, loops := range counts {
		ms, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
		if err != nil {
			return nil, err
		}
		opt, err := microbench.RunFutexPingPong(ms, loops)
		if err != nil {
			return nil, fmt.Errorf("figure13 stramash %d: %w", loops, err)
		}
		mp, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.PopcornSHM})
		if err != nil {
			return nil, err
		}
		reg, err := microbench.RunFutexPingPong(mp, loops)
		if err != nil {
			return nil, fmt.Errorf("figure13 popcorn %d: %w", loops, err)
		}
		r.Rows = append(r.Rows, Figure13Row{
			Loops:           loops,
			OptimizedCycles: opt.Cycles,
			RegularCycles:   reg.Cycles,
			Speedup:         ratio(float64(reg.Cycles), float64(opt.Cycles)),
		})
	}
	return r, nil
}

// Name implements Result.
func (r *Figure13Result) Name() string { return "Figure 13: futex experiment" }

// Render implements Result.
func (r *Figure13Result) Render() string {
	tw := &tableWriter{header: []string{"Loops", "Futex-opt cycles", "Regular cycles", "speedup"}}
	for _, row := range r.Rows {
		tw.addRow(fi(int64(row.Loops)), fi(int64(row.OptimizedCycles)), fi(int64(row.RegularCycles)), f2(row.Speedup))
	}
	return tw.String()
}

// ShapeErrors implements Result: the optimized path wins at every count
// and the gap grows with more futex operations (§9.2.6).
func (r *Figure13Result) ShapeErrors() []string {
	var errs []string
	for _, row := range r.Rows {
		if row.Speedup <= 1 {
			errs = append(errs, fmt.Sprintf("%d loops: optimized futex not faster (%.2fx)", row.Loops, row.Speedup))
		}
	}
	if len(r.Rows) >= 2 {
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if last.OptimizedCycles <= first.OptimizedCycles {
			errs = append(errs, "optimized cycles did not grow with loop count")
		}
		if last.RegularCycles <= first.RegularCycles {
			errs = append(errs, "regular cycles did not grow with loop count")
		}
	}
	return errs
}
