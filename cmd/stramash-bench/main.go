// Command stramash-bench regenerates every table and figure of the
// paper's evaluation section and reports, per experiment, whether the
// paper's shape claims reproduce.
//
// Experiments run at most -parallel at a time (one fully isolated
// simulated machine set per experiment). The report on stdout is rendered
// in paper order whatever the completion order, so it is byte-identical at
// any -parallel setting; the run summary goes to stderr.
//
// Usage:
//
//	stramash-bench [-scale quick|full] [-only <id> | -suite validation|extras]
//	               [-parallel N] [-list] [-json results.json]
//	               [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -suite runs a named group instead of the default paper sweep:
// validation is the simulator-validation suite of §9.1 (table2, the IPI
// latency characterisation of Figures 5/6, the icount validation of
// Figure 7 and the cache plugin comparison of Figure 8); extras is the
// reproduction-only experiments. -suite and -only exclude each other.
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
// exports them, each experiment's host wall time (wall_ms), and any shape
// deviations or errors.
// Exit codes: 0 all shape claims reproduced, 1 an experiment failed, 2
// usage error, 3 shape deviations. CI gates on them.
//
// Experiment ids: table2, fig5-6-small, fig5-6-big, fig7-small, fig7-big,
// fig8, table3, table4, fig9, fig10, fig11, fig12, fig13, fig14,
// ablation-remote-alloc, ablation-ipi. Reproduction-only extras (run via
// -only or -suite extras, excluded from the default full run): multicore,
// filesys, cluster, redisprod, tenants.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

// validationIDs is the §9.1 suite, in report order.
var validationIDs = []string{"table2", "fig5-6-small", "fig5-6-big", "fig7-small", "fig7-big", "fig8"}

// options are the parsed flags that shape a run once its specs are chosen.
type options struct {
	scale                           experiments.Scale
	parallel                        int
	jsonOut, cpuProfile, memProfile string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, picks the experiments and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stramash-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var scale experiments.Scale
	fs.Var(&scale, "scale", "workload scale: quick or full")
	only := fs.String("only", "", "run a single experiment by id")
	suite := fs.String("suite", "", "run a named group: validation (§9.1) or extras")
	list := fs.Bool("list", false, "list experiment ids and exit")
	parallel := fs.Int("parallel", 0, "host width: experiments in flight, spare cores to their rows (0 = GOMAXPROCS, 1 = sequential)")
	jsonOut := fs.String("json", "", "write a machine-readable JSON report to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *list {
		for _, s := range experiments.All() {
			fmt.Fprintln(stdout, s.ID)
		}
		for _, s := range experiments.Extra() {
			fmt.Fprintln(stdout, s.ID)
		}
		return 0
	}

	opt := options{
		scale: scale, parallel: *parallel,
		jsonOut: *jsonOut, cpuProfile: *cpuProfile, memProfile: *memProfile,
	}

	specs, err := selectSpecs(*only, *suite)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return execute(specs, opt, stdout, stderr)
}

// selectSpecs resolves -only and -suite; with neither it is the paper
// sweep. Every error it returns is a usage error.
func selectSpecs(only, suite string) ([]experiments.Spec, error) {
	switch {
	case only != "" && suite != "":
		return nil, fmt.Errorf("-only and -suite exclude each other")
	case only != "":
		s, ok := experiments.Find(only)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", only)
		}
		return []experiments.Spec{s}, nil
	case suite == "validation":
		var specs []experiments.Spec
		for _, id := range validationIDs {
			s, ok := experiments.Find(id)
			if !ok {
				return nil, fmt.Errorf("validation suite names unknown experiment %q", id)
			}
			specs = append(specs, s)
		}
		return specs, nil
	case suite == "extras":
		return experiments.Extra(), nil
	case suite != "":
		return nil, fmt.Errorf("unknown suite %q (validation or extras)", suite)
	}
	return experiments.All(), nil
}

// execute runs specs and reports them, returning the exit code. Tests
// drive it with injected specs.
func execute(specs []experiments.Spec, opt options, stdout, stderr io.Writer) int {
	// Profiling brackets exactly the experiment runs: flag parsing and
	// report rendering stay out of the profile.
	if opt.cpuProfile != "" {
		f, err := os.Create(opt.cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
	}

	start := time.Now()
	outcomes := experiments.RunPool(specs, opt.scale, opt.parallel)
	wall := time.Since(start)

	if opt.cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(stderr, "cpu profile written to %s\n", opt.cpuProfile)
	}
	if opt.memProfile != "" {
		if err := writeMemProfile(opt.memProfile); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "heap profile written to %s\n", opt.memProfile)
	}

	fmt.Fprintln(stderr, experiments.Summarize(outcomes, wall))

	if opt.jsonOut != "" {
		if err := writeJSONFile(opt.jsonOut, opt.scale, outcomes, wall); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "json report written to %s\n", opt.jsonOut)
	}

	deviations, err := experiments.Report(stdout, outcomes)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "error: %v\n", err)
	case deviations > 0:
		fmt.Fprintf(stdout, "total shape deviations: %d\n", deviations)
	default:
		fmt.Fprintln(stdout, "all shape checks reproduced")
	}
	return experiments.ExitCode(deviations, err)
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
