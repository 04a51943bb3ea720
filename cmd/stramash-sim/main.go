// Command stramash-sim runs one workload on one simulated machine
// configuration and prints the perf profile, the overhead breakdown, and
// the artifact-style cache counter dump — the reproduction's equivalent of
// booting a Stramash-QEMU pair and running an NPB binary in it.
//
// Usage:
//
//	stramash-sim [-os vanilla|popcorn-tcp|popcorn-shm|stramash]
//	             [-model separated|shared|fullyshared]
//	             [-bench IS|CG|MG|FT] [-class T|S|W]
//	             [-l3 bytes] [-no-migrate]
//	             [-trace out.json] [-trace-summary]
//	             [-fileio] [-cluster N] [-cluster-requests R]
//	             [-prod] [-prod-kind sharded|locked]
//	             [-prod-regime fused|popcorn] [-prod-cores N]
//	             [-prod-requests R]
//
// -trace records every simulated event (schedule, faults, coherence,
// messaging) and writes a Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. -trace-summary prints the per-class cycle-attribution
// report instead of (or in addition to) the JSON. Tracing never perturbs
// simulated timing: cycle counts are identical with and without it.
//
// -fileio replaces the NPB benchmark with a cross-ISA shared-file
// workload (an x86 producer and an Arm consumer on one file) and runs it
// under both page-cache regimes — the fused shared cache and the
// Popcorn-style per-kernel DSM cache — printing their cycle and
// page-cache counters side by side.
//
// -cluster N boots N server machines plus a load-balancer machine on one
// switch fabric and runs the open-loop socket redis benchmark under the
// selected -os/-model personality, printing client latency percentiles,
// per-server accounting, and each machine's NIC counters.
//
// -prod boots a load generator plus one multi-core production redis
// server (cloned worker per core, pipelined frontend, AOF group commit
// through the chosen page-cache regime), prints per-worker and
// persistence counters, and exits non-zero if replaying the AOF does not
// rebuild the live keyspace — the recovery gate CI runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/npb"
	"repro/internal/perf"
	"repro/internal/trace"
)

func main() {
	osFlag := flag.String("os", "stramash", "OS personality: vanilla, popcorn-tcp, popcorn-shm, stramash")
	modelFlag := flag.String("model", "shared", "memory model: separated, shared, fullyshared")
	benchFlag := flag.String("bench", "IS", "benchmark: IS, CG, MG, FT")
	classFlag := flag.String("class", "S", "problem class: T, S, W")
	l3 := flag.Int("l3", 0, "per-node L3 size in bytes (0 = default 4 MiB)")
	noMigrate := flag.Bool("no-migrate", false, "run without cross-ISA migration")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	traceSummary := flag.Bool("trace-summary", false, "print the per-class cycle-attribution report")
	fileIO := flag.Bool("fileio", false, "run the cross-ISA shared-file workload under both page-cache regimes")
	cluster := flag.Int("cluster", 0, "boot N server machines plus a load balancer and run the socket redis benchmark")
	clusterReqs := flag.Int("cluster-requests", 200, "requests for the -cluster benchmark")
	prod := flag.Bool("prod", false, "run the multi-core production redis server with AOF persistence and verify recovery")
	prodKind := flag.String("prod-kind", "sharded", "production keyspace regime: sharded or locked")
	prodRegime := flag.String("prod-regime", "fused", "production AOF page-cache regime: fused or popcorn")
	prodCores := flag.Int("prod-cores", 2, "production server cores per node (2x workers)")
	prodReqs := flag.Int("prod-requests", 200, "requests for the -prod benchmark")
	tenants := flag.Int("tenants", 0, "boot one multi-tenant machine with N tenants under the capability layer and gate on the isolation claims")
	tenantsRegime := flag.String("tenants-regime", "fused", "page-cache regime for the -tenants machine: fused or popcorn")
	flag.Parse()

	if *fileIO {
		fatal(runFileIO())
		return
	}

	if *prod {
		kind, err := parseKeyspace(*prodKind)
		fatal(err)
		regime, err := parseRegime(*prodRegime)
		fatal(err)
		fatal(runProd(kind, regime, *prodCores, *prodReqs))
		return
	}

	if *tenants > 0 {
		regime, err := parseRegime(*tenantsRegime)
		fatal(err)
		fatal(runTenants(*tenants, regime))
		return
	}

	osKind, err := parseOS(*osFlag)
	fatal(err)
	model, err := parseModel(*modelFlag)
	fatal(err)

	if *cluster > 0 {
		fatal(runCluster(osKind, model, *cluster, *clusterReqs))
		return
	}

	class, err := parseClass(*classFlag)
	fatal(err)

	w, err := npb.New(*benchFlag, class)
	fatal(err)

	var buf *trace.Buffer
	if *traceOut != "" || *traceSummary {
		buf = trace.NewBuffer()
	}

	m, err := machine.New(machine.Config{Model: model, OS: osKind, L3Size: *l3, Tracer: tracerOrNil(buf)})
	fatal(err)

	migrate := !*noMigrate && osKind != machine.VanillaOS
	fmt.Printf("running %s (class %v) on %v / %v, migrate=%v\n\n",
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
	fatal(err)

	fmt.Printf("result: VERIFIED, total %d cycles (task end-to-end)\n", res.Elapsed())
	fmt.Printf("timed region: %d cycles\n", breakdown.Total)
	fmt.Printf("breakdown: %v\n", breakdown)
	fmt.Printf("icount: x86=%d arm=%d (IPC %.3f / %.3f)\n\n",
		profile.Node[0].Instructions, profile.Node[1].Instructions,
		profile.Node[0].IPC(), profile.Node[1].IPC())

	st := res.Task.Stats
	fmt.Printf("faults: %d read, %d write | migrations: %d | messages: %d\n\n",
		st.ReadFaults, st.WriteFaults, st.Migrations, m.Messages())

	for n := 0; n < 2; n++ {
		node := mem.NodeID(n)
		fmt.Println(perf.ArtifactDump(node.String(), m.CacheStats(node),
			m.Plat.IPICount(node), res.Task.NodeTime(node)))
	}

	if *traceSummary {
		fmt.Println(perf.TraceReport(buf))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fatal(err)
		fatal(buf.WriteChromeTrace(f))
		fatal(f.Close())
		fmt.Printf("trace: %d events written to %s\n", buf.Len(), *traceOut)
	}
}

// tracerOrNil avoids the classic typed-nil-in-interface trap: a nil
// *trace.Buffer stored in a trace.Tracer interface would compare non-nil
// at every emit site.
func tracerOrNil(buf *trace.Buffer) trace.Tracer {
	if buf == nil {
		return nil
	}
	return buf
}

func parseOS(s string) (machine.OSKind, error) {
	switch s {
	case "vanilla":
		return machine.VanillaOS, nil
	case "popcorn-tcp":
		return machine.PopcornTCP, nil
	case "popcorn-shm":
		return machine.PopcornSHM, nil
	case "stramash":
		return machine.StramashOS, nil
	}
	return 0, fmt.Errorf("unknown OS %q", s)
}

func parseModel(s string) (mem.Model, error) {
	switch s {
	case "separated":
		return mem.Separated, nil
	case "shared":
		return mem.Shared, nil
	case "fullyshared":
		return mem.FullyShared, nil
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

func parseClass(s string) (npb.Class, error) {
	switch s {
	case "T":
		return npb.ClassT, nil
	case "S":
		return npb.ClassS, nil
	case "W":
		return npb.ClassW, nil
	}
	return 0, fmt.Errorf("unknown class %q", s)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stramash-sim:", err)
		os.Exit(1)
	}
}
