// Command bench is the repository's performance ledger: one command that
// runs one fixed workload in one process and reports it on both clocks —
// simulated cycles (deterministic, must repeat exactly) and host time
// (medians over repetitions). It changes no simulator code: every layer
// is measured from outside, by timing calls into exported functions and
// reading exported Stats. See README.md.
//
//	bench -workload npb-mem [-seed 7] [-seconds 12] [-out ledger.json]
//	bench -workload npb-mem -trace 1 [-trace-out spans.json]
//	bench -layers -out layers.json -trace-out spans.json
//	bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// errOut receives diagnostics and failed-check names.
var errOut io.Writer = os.Stderr

// defaultTrafficSeed is the seed of every in-tree serving experiment.
const defaultTrafficSeed = 7

// Exit codes follow stramash-bench: 0 ok, 1 runtime error or failed
// correctness check, 2 usage, 3 regression found by -compare.
const (
	exitOK = iota
	exitRuntime
	exitUsage
	exitRegressed
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 7, "run seed: orders the cells within a repetition (host clock only)")
	trafficSeed := fs.Uint64("traffic-seed", defaultTrafficSeed, "TrafficParams.Seed of the serving workloads (part of the workload definition; change it to check a claim on another traffic sample)")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure after set-up")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the layer sweep and a traced repetition")
	layers := fs.Bool("layers", false, "layer sweep plus a traced repetition of every workload")
	out := fs.String("out", "", "merge this run's record into a JSON ledger file")
	traceOut := fs.String("trace-out", "", "write the benchmark-side spans of traced repetitions here")
	compare := fs.Bool("compare", false, "compare two ledgers: bench -compare a.json b.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as rendered from the metric tables")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	switch {
	case *printManifest:
		stdout.Write(manifest())
		return exitOK
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(errOut, "bench: -compare takes two ledger files")
			return exitUsage
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), stdout)
	}
	env := recordEnvironment(*seed, *trafficSeed)
	var results []result
	var sp *spans
	var err error
	switch {
	case *layers:
		sp = newSpans()
		results, err = runLayers(workloadNames, fullSizes, 1, env, sp)
	case *name == "":
		fmt.Fprintln(errOut, "bench: need -workload, -layers, -compare or -manifest")
		return exitUsage
	default:
		w, werr := buildWorkload(*name, fullSizes, *trafficSeed)
		if werr != nil {
			fmt.Fprintln(errOut, "bench:", werr)
			return exitUsage
		}
		if *traced != 0 {
			sp = newSpans()
			results, err = runLayers([]string{*name}, fullSizes, 1, env, sp)
		} else {
			var r result
			r, err = runEndToEnd(w, *seed, *seconds, 0)
			results = []result{r}
		}
	}
	if err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		return exitRuntime
	}
	code := exitOK
	for i := range results {
		results[i].Env = env
		report(stdout, results[i])
		if !results[i].Correct {
			code = exitRuntime
		}
	}
	if *out != "" {
		if err := mergeLedger(*out, results); err != nil {
			fmt.Fprintln(errOut, "bench:", err)
			return exitRuntime
		}
	}
	if *traceOut != "" && sp != nil {
		if err := writeJSON(*traceOut, sp.list); err != nil {
			fmt.Fprintln(errOut, "bench:", err)
			return exitRuntime
		}
	}
	return code
}

// environment puts the run's seeds and host on the record.
type environment struct {
	Seed        uint64 `json:"seed"`
	TrafficSeed uint64 `json:"traffic_seed"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitHead     string `json:"git_head"`
}

func recordEnvironment(seed, trafficSeed uint64) environment {
	head := "unknown" // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(b))
	}
	return environment{Seed: seed, TrafficSeed: trafficSeed, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitHead: head}
}

// report prints every metric by name with its unit, then — as the last
// line — the contract's result object holding exactly the metrics
// BENCHMARK.json lists for the mode.
func report(w io.Writer, r result) {
	defs := endToEnd
	if r.Mode == "layers" {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s (%s): %d timed repetitions, %d/%d checks failed\n", r.Workload, r.Mode, r.Reps, r.Failed, r.Attempted)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	show := func(d metricDef) {
		fmt.Fprintf(w, "%-34s %18.6f %s", d.Name, r.Metrics[d.Name], d.Unit)
		if s, ok := r.Host[d.Name]; ok {
			fmt.Fprintf(w, "  (median of %d; quartiles %.6f .. %.6f)", len(s.Samples), s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, d := range defs {
		show(d)
		line.Metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	if r.Mode == "e2e" {
		for _, d := range ungated {
			show(d)
		}
	}
	b, _ := json.Marshal(line) // a struct of numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

// ledger is the -out file: one record per (workload, mode), replaced when
// the same pair is measured again, so five runs fill one file.
type ledger struct {
	Schema string   `json:"schema"`
	Runs   []result `json:"runs"`
}

const ledgerSchema = "stramash-bench-ledger/1"

func readLedger(path string) (ledger, error) {
	l := ledger{Schema: ledgerSchema}
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return l, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, ledgerSchema)
	}
	return l, nil
}

func mergeLedger(path string, results []result) error {
	l, err := readLedger(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, r := range results {
		replaced := false
		for i := range l.Runs {
			if l.Runs[i].Workload == r.Workload && l.Runs[i].Mode == r.Mode {
				l.Runs[i], replaced = r, true
			}
		}
		if !replaced {
			l.Runs = append(l.Runs, r)
		}
	}
	return writeJSON(path, l)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
