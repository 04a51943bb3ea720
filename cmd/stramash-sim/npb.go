package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/npb"
	"repro/internal/perf"
	"repro/internal/trace"
)

// npbCmd defines the npb subcommand: one NPB benchmark on one machine.
func npbCmd(fs *flag.FlagSet) job {
	pers := personalityFlags(fs)
	bench := fs.String("bench", "IS", "benchmark: IS, CG, MG, FT")
	classFlag := fs.String("class", "S", "problem class: T, S, W")
	l3 := fs.Int("l3", 0, "per-node L3 size in bytes (0 = default 4 MiB)")
	noMigrate := fs.Bool("no-migrate", false, "run without cross-ISA migration")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	traceSummary := fs.Bool("trace-summary", false, "print the per-class cycle-attribution report")
	return func(out io.Writer) error {
		osKind, model, err := pers.parse()
		if err != nil {
			return err
		}
		class, err := lookup("class", *classFlag, map[string]npb.Class{"T": npb.ClassT, "S": npb.ClassS, "W": npb.ClassW})
		if err != nil {
			return err
		}
		w, err := npb.New(*bench, class)
		if err != nil {
			return err
		}

		// A nil *trace.Buffer in the interface would compare non-nil at
		// every emit site: the tracer stays nil unless tracing is on.
		var buf *trace.Buffer
		var tracer trace.Tracer
		if *traceOut != "" || *traceSummary {
			buf = trace.NewBuffer()
			tracer = buf
		}
		m, err := machine.New(machine.Config{Model: model, OS: osKind, L3Size: *l3, Tracer: tracer})
		if err != nil {
			return err
		}

		migrate := !*noMigrate && osKind != machine.VanillaOS
		fmt.Fprintf(out, "running %s (class %v) on %v / %v, migrate=%v\n\n",
			w.Name(), class, osKind, model, migrate)

		var profile perf.Profile
		var breakdown perf.Breakdown
		res, err := m.RunSingle(w.Name(), mem.NodeX86, func(t *kernel.Task) error {
			if err := w.Run(t, migrate); err != nil {
				return err
			}
			profile = perf.Collect(t)
			breakdown = perf.BreakdownOf(t.TimedStats(), t.TimedCycles())
			return nil
		})
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "result: VERIFIED, total %d cycles (task end-to-end)\n", res.Elapsed())
		fmt.Fprintf(out, "timed region: %d cycles\n", breakdown.Total)
		fmt.Fprintf(out, "breakdown: %v\n", breakdown)
		fmt.Fprintf(out, "icount: x86=%d arm=%d (IPC %.3f / %.3f)\n\n",
			profile.Node[0].Instructions, profile.Node[1].Instructions,
			profile.Node[0].IPC(), profile.Node[1].IPC())

		st := res.Task.Stats
		fmt.Fprintf(out, "faults: %d read, %d write | migrations: %d | messages: %d\n\n",
			st.ReadFaults, st.WriteFaults, st.Migrations, m.Messages())

		for n := 0; n < 2; n++ {
			node := mem.NodeID(n)
			fmt.Fprintln(out, perf.ArtifactDump(node.String(), m.CacheStats(node),
				m.Plat.IPICount(node), res.Task.NodeTime(node)))
		}

		if *traceSummary {
			fmt.Fprintln(out, perf.TraceReport(buf))
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := buf.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "trace: %d events written to %s\n", buf.Len(), *traceOut)
		}
		return nil
	}
}
