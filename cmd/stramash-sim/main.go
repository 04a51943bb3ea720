// Command stramash-sim runs one workload on one simulated machine
// configuration and prints the perf profile, the overhead breakdown, and
// the artifact-style cache counter dump — the reproduction's equivalent of
// booting a Stramash-QEMU pair and running an NPB binary in it.
//
// Usage:
//
//	stramash-sim [npb] [-os vanilla|popcorn-tcp|popcorn-shm|stramash]
//	                   [-model separated|shared|fullyshared]
//	                   [-bench IS|CG|MG|FT] [-class T|S|W]
//	                   [-l3 bytes] [-no-migrate]
//	                   [-trace out.json] [-trace-summary]
//	stramash-sim fileio
//	stramash-sim cluster [-os ...] [-model ...] [-servers N] [-requests R]
//	stramash-sim prod [-kind sharded|locked] [-regime fused|popcorn]
//	                  [-cores N] [-requests R]
//	stramash-sim tenants [-n N] [-regime fused|popcorn]
//
// With no subcommand, or when the first argument is a flag, stramash-sim
// runs npb. An unknown subcommand, a bad flag, a negative count or a stray
// argument prints the usage and exits 2.
//
// npb runs one NPB benchmark. -trace writes every simulated event
// (schedule, faults, coherence, messaging) as Chrome trace-event JSON
// loadable in Perfetto; -trace-summary prints the per-class
// cycle-attribution report. Tracing never perturbs simulated cycles.
// fileio runs an x86 producer and an Arm consumer on one file under both
// page-cache regimes. cluster runs the socket redis benchmark on -servers
// server machines behind a load balancer. prod runs the multi-core
// production redis server and exits 1 if replaying its AOF does not
// rebuild the live keyspace; tenants exits 1 if an isolation claim fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// subcommands maps each subcommand to the function that defines its flags
// on a fresh FlagSet and returns the job those flags configure.
var subcommands = map[string]func(fs *flag.FlagSet) func(){
	"npb":     npbCmd,
	"fileio":  func(*flag.FlagSet) func() { return func() { fatal(runFileIO()) } },
	"cluster": clusterCmd,
	"prod":    prodCmd,
	"tenants": tenantsCmd,
}

func main() {
	_, job, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		os.Exit(2)
	}
	job()
}

// parse picks the subcommand args name — npb when args is empty or starts
// with a flag — and parses the rest with that subcommand's flags. A usage
// error (every int flag is a count, so a negative one is too) is printed
// with the usage to stderr and returned.
func parse(args []string, stderr io.Writer) (string, func(), error) {
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
	job := define(fs)
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
	return name, job, nil
}

// requestsFlag, regimeFlag and personalityFlags are the flag definitions
// subcommands share.
func requestsFlag(fs *flag.FlagSet) *int {
	return fs.Int("requests", 200, "requests the load generator sends")
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

func (p personality) parse() (machine.OSKind, mem.Model) {
	osKind, ok := map[string]machine.OSKind{"vanilla": machine.VanillaOS, "popcorn-tcp": machine.PopcornTCP,
		"popcorn-shm": machine.PopcornSHM, "stramash": machine.StramashOS}[*p.os]
	if !ok {
		fatal(fmt.Errorf("unknown OS %q", *p.os))
	}
	model, ok := map[string]mem.Model{"separated": mem.Separated, "shared": mem.Shared, "fullyshared": mem.FullyShared}[*p.model]
	if !ok {
		fatal(fmt.Errorf("unknown model %q", *p.model))
	}
	return osKind, model
}

func parseRegime(s string) vfs.Regime {
	regime, ok := map[string]vfs.Regime{"fused": vfs.RegimeFused, "popcorn": vfs.RegimePopcorn}[s]
	if !ok {
		fatal(fmt.Errorf("unknown page-cache regime %q (fused or popcorn)", s))
	}
	return regime
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "stramash-sim:", err)
		os.Exit(1)
	}
}
