// Command stramash-bench regenerates every table and figure of the
// paper's evaluation section and reports, per experiment, whether the
// paper's shape claims reproduce.
//
// Experiments run on a bounded worker pool (one fully isolated simulated
// machine set per experiment). The report on stdout is rendered in paper
// order whatever the completion order, so it is byte-identical at any
// -parallel setting; timing and the run summary go to stderr.
//
// Usage:
//
//	stramash-bench [-scale quick|full] [-only <id>] [-parallel N]
//	               [-timeout d] [-timing] [-list] [-json results.json]
//	               [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -cpuprofile and -memprofile write pprof profiles of the host process
// (see EXPERIMENTS.md, "Profiling the simulator"). Profile with
// -parallel 1 for readable flame graphs; profiling does not perturb
// simulated cycle counts, only host wall time.
//
// -parallel is the only host knob. It bounds the experiments in flight,
// and when fewer experiments than -parallel run at once, the spare cores
// go to each experiment's independent rows: -only redisprod uses all of
// them, a full run keeps rows sequential, and -parallel 1 runs everything
// on one goroutine at a time.
//
// -json additionally writes a machine-readable report: per experiment the
// simulated cycle counts and counters (deterministic across runs, with
// per-worker and per-tenant counters for the serving extras), the
// simulation driver's own counters (engine_stats) where an experiment
// exports them, the host wall time, and any shape deviations or errors.
// Exit codes: 0 all shape claims reproduced, 1 an experiment failed, 3
// shape deviations.
//
// Experiment ids: table2, fig5-6-small, fig5-6-big, fig7-small, fig7-big,
// fig8, table3, table4, fig9, fig10, fig11, fig12, fig13, fig14,
// ablation-remote-alloc, ablation-ipi. Reproduction-only extras (run via
// -only, excluded from the default full run): multicore, filesys, cluster,
// redisprod, tenants.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	only := flag.String("only", "", "run a single experiment by id")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", 0, "host width: experiments in flight, spare cores to their rows (0 = GOMAXPROCS, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "per-experiment wall-clock timeout (0 = none)")
	timing := flag.Bool("timing", false, "print per-experiment wall-clock timing to stderr")
	jsonOut := flag.String("json", "", "write a machine-readable JSON report to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	flag.Parse()

	if *list {
		for _, s := range experiments.All() {
			fmt.Println(s.ID)
		}
		for _, s := range experiments.Extra() {
			fmt.Println(s.ID)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	specs := experiments.All()
	if *only != "" {
		s, ok := experiments.Find(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *only)
			os.Exit(2)
		}
		specs = []experiments.Spec{s}
	}

	opts := experiments.PoolOptions{Parallelism: *parallel, Timeout: *timeout}

	// Profiling brackets exactly the experiment pool: flag parsing and
	// report rendering stay out of the profile. main exits via os.Exit, so
	// the profiles are closed explicitly here rather than deferred.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	outcomes := experiments.RunPool(context.Background(), specs, scale, opts)
	wall := time.Since(start)

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProfile)
	}

	if *timing {
		for _, o := range outcomes {
			fmt.Fprintf(os.Stderr, "%-22s %v\n", o.Spec.ID, o.Wall.Round(time.Millisecond))
		}
	}
	summary := experiments.Summarize(outcomes, wall)
	fmt.Fprintln(os.Stderr, summary)

	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, scale, outcomes, wall); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "json report written to %s\n", *jsonOut)
	}

	deviations, err := experiments.Report(os.Stdout, outcomes)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
	case deviations > 0:
		fmt.Printf("total shape deviations: %d\n", deviations)
	default:
		fmt.Println("all shape checks reproduced")
	}
	os.Exit(experiments.ExitCode(deviations, err))
}

// writeMemProfile records the post-run heap. allocs-space totals in the
// profile cover the whole run; the GC runs first so inuse numbers reflect
// live retention, not garbage awaiting collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSONFile renders the -json report. It runs before Report so that a
// failed experiment still leaves a file recording what completed.
func writeJSONFile(path string, scale experiments.Scale, outcomes []experiments.Outcome, wall time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSON(f, experiments.BuildJSONReport(scale, outcomes, wall)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
