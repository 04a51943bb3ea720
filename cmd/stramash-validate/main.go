// Command stramash-validate runs the simulator-validation suite of §9.1:
// the IPI latency characterisation (Figures 5/6), the icount validation
// against the bare-metal reference machines (Figure 7), and the cache
// plugin comparison against the independent gem5-style model (Figure 8).
//
// Like stramash-bench, the validation experiments run on a bounded worker
// pool; the stdout report is rendered in suite order and is byte-identical
// at any -parallel setting.
//
// Exit codes: 0 when the validation reproduces, 1 when an experiment fails
// to run, 3 when it runs but shape deviations are found. CI gates on this.
//
// -extras appends the reproduction-only experiments (multicore, filesys,
// cluster, redisprod, tenants) to the suite, gating their shape checks
// with the same exit codes.
//
// Usage:
//
//	stramash-validate [-scale quick|full] [-parallel N] [-extras]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

// validationIDs is the §9.1 suite, in report order.
var validationIDs = []string{"table2", "fig5-6-small", "fig5-6-big", "fig7-small", "fig7-big", "fig8"}

func main() {
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	parallel := flag.Int("parallel", 0, "experiments in flight (0 = GOMAXPROCS, 1 = sequential)")
	extras := flag.Bool("extras", false, "also gate the reproduction-only extras (multicore, filesys, cluster, redisprod, tenants)")
	flag.Parse()

	scale := experiments.Quick
	if *scaleFlag == "full" {
		scale = experiments.Full
	}

	var specs []experiments.Spec
	for _, id := range validationIDs {
		spec, ok := experiments.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "missing experiment %s\n", id)
			os.Exit(1)
		}
		specs = append(specs, spec)
	}
	if *extras {
		specs = append(specs, experiments.Extra()...)
	}

	os.Exit(run(specs, scale, *parallel, os.Stdout, os.Stderr))
}

// run executes the suite and returns the process exit code. It is the
// whole command minus flag parsing, so tests can assert the exit behaviour
// with injected specs.
func run(specs []experiments.Spec, scale experiments.Scale, parallel int, stdout, stderr io.Writer) int {
	start := time.Now()
	outcomes := experiments.RunPool(context.Background(), specs, scale,
		experiments.PoolOptions{Parallelism: parallel})
	fmt.Fprintln(stderr, experiments.Summarize(outcomes, time.Since(start)))

	deviations, err := experiments.Report(stdout, outcomes)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "error: %v\n", err)
	case deviations > 0:
		fmt.Fprintf(stdout, "validation finished with %d shape deviation(s)\n", deviations)
	default:
		fmt.Fprintln(stdout, "simulator validation reproduced")
	}
	return experiments.ExitCode(deviations, err)
}
