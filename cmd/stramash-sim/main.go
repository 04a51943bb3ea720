// Command stramash-sim runs one workload on one simulated machine
// configuration and prints the perf profile, the overhead breakdown, and
// the artifact-style cache counter dump — the reproduction's equivalent of
// booting a Stramash-QEMU pair and running an NPB binary in it. Its other
// subcommands each run one cell of a serving extra of stramash-bench.
//
// Usage:
//
//	stramash-sim [npb] [-os vanilla|popcorn-tcp|popcorn-shm|stramash]
//	                   [-model separated|shared|fullyshared]
//	                   [-bench IS|CG|MG|FT] [-class T|S|W]
//	                   [-l3 bytes] [-no-migrate]
//	                   [-trace out.json] [-trace-summary]
//	stramash-sim fileio
//	stramash-sim cluster [-os ...] [-model ...] [-servers N] [-scale quick|full]
//	stramash-sim prod [-kind sharded|locked] [-regime fused|popcorn]
//	                  [-cores N] [-scale quick|full]
//	stramash-sim tenants [-n N] [-regime fused|popcorn]
//
// With no subcommand, or when the first argument is a flag, stramash-sim
// runs npb. An unknown subcommand, a bad flag, a bad -scale, a negative
// count or a stray argument prints the usage and exits 2.
//
// npb runs one NPB benchmark. -trace writes every simulated event
// (schedule, faults, coherence, messaging) as Chrome trace-event JSON
// loadable in Perfetto; -trace-summary prints the per-class
// cycle-attribution report. Tracing never perturbs simulated cycles.
//
// fileio, cluster, prod and tenants run cells of the filesys, cluster,
// redisprod and tenants extras through the extras' own entry points:
// fileio the two 1-core cells, cluster and prod the named cell at -scale,
// tenants the named cell after its solo baseline (quick scale). Each
// prints the extra's own rendering of those rows, then the extra's
// per-cell check, and exits 1 if any check fails. At -scale full the
// cluster and prod rows are the ones pinned in extras_full.txt.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// job is a configured subcommand run: it writes its report to w.
type job func(w io.Writer) error

// subcommands maps each subcommand to the function that defines its flags
// on a fresh FlagSet and returns the job those flags configure.
var subcommands = map[string]func(fs *flag.FlagSet) job{
	"npb":     npbCmd,
	"fileio":  fileioCmd,
	"cluster": clusterCmd,
	"prod":    prodCmd,
	"tenants": tenantsCmd,
}

func main() {
	_, run, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2)
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stramash-sim:", err)
		os.Exit(1)
	}
}

// parse picks the subcommand args name — npb when args is empty or starts
// with a flag — and parses the rest with that subcommand's flags. A usage
// error (every int flag is a count, so a negative one is too) is printed
// with the usage to stderr and returned.
func parse(args []string, stderr io.Writer) (string, job, error) {
	name := "npb"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	define, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(stderr, "stramash-sim: unknown subcommand %q (npb, fileio, cluster, prod or tenants)\n", name)
		return name, nil, fmt.Errorf("unknown subcommand %q", name)
	}
	fs := flag.NewFlagSet("stramash-sim "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := define(fs)
	if err := fs.Parse(args); err != nil {
		return name, nil, err
	}
	var err error
	if fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n < 0 {
			err = fmt.Errorf("-%s %d: a count cannot be negative", f.Name, n)
		}
	})
	if err != nil {
		fmt.Fprintln(stderr, "stramash-sim:", err)
		fs.Usage()
		return name, nil, err
	}
	return name, run, nil
}

// scaleFlag, regimeFlag and personalityFlags are the flag definitions
// subcommands share.
func scaleFlag(fs *flag.FlagSet) *experiments.Scale {
	s := new(experiments.Scale)
	fs.Var(s, "scale", "workload scale of the extra's cell: `quick` or full")
	return s
}

func regimeFlag(fs *flag.FlagSet) *string {
	return fs.String("regime", "fused", "page-cache regime: fused or popcorn")
}

// personality is the -os/-model pair.
type personality struct{ os, model *string }

func personalityFlags(fs *flag.FlagSet) personality {
	return personality{
		os:    fs.String("os", "stramash", "OS personality: vanilla, popcorn-tcp, popcorn-shm, stramash"),
		model: fs.String("model", "shared", "memory model: separated, shared, fullyshared"),
	}
}

func (p personality) parse() (machine.OSKind, mem.Model, error) {
	osKind, err := lookup("OS", *p.os, map[string]machine.OSKind{"vanilla": machine.VanillaOS,
		"popcorn-tcp": machine.PopcornTCP, "popcorn-shm": machine.PopcornSHM, "stramash": machine.StramashOS})
	if err != nil {
		return 0, 0, err
	}
	model, err := lookup("model", *p.model, map[string]mem.Model{"separated": mem.Separated, "shared": mem.Shared, "fullyshared": mem.FullyShared})
	return osKind, model, err
}

// regimes names the page-cache regimes for -regime.
var regimes = map[string]vfs.Regime{"fused": vfs.RegimeFused, "popcorn": vfs.RegimePopcorn}

// lookup resolves the value of a named-choice flag; what names the choice
// in the error, which lists the valid names.
func lookup[V any](what, name string, values map[string]V) (V, error) {
	v, ok := values[name]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (%s)", what, name, strings.Join(slices.Sorted(maps.Keys(values)), ", "))
	}
	return v, nil
}
