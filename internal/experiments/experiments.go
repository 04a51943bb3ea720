// Package experiments implements one runner per table and figure of the
// paper's evaluation (§9). Each runner executes the corresponding workload
// on the appropriate machine configurations, returns a structured result,
// renders it as a text table comparable to the paper's, and checks the
// *shape* claims — who wins, by roughly what factor, where the crossovers
// are — that a reproduction must preserve even when absolute numbers
// differ.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/npb"
	"repro/internal/sim"
)

// Scale selects how big the experiment workloads are.
type Scale int

const (
	// Quick runs tiny workloads (CI-sized, seconds total).
	Quick Scale = iota
	// Full runs the evaluation-sized workloads.
	Full
)

// String names the scale the way the -scale flag spells it.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// Set parses a -scale flag value, so that every CLI defines the flag with
// flag.Var and a bad value is a usage error.
func (s *Scale) Set(v string) error {
	switch v {
	case "quick":
		*s = Quick
	case "full":
		*s = Full
	default:
		return fmt.Errorf("unknown scale %q (quick or full)", v)
	}
	return nil
}

// Get makes Scale a flag.Getter like the flag package's own values.
func (s *Scale) Get() any { return *s }

func (s Scale) class() npb.Class {
	if s == Quick {
		return npb.ClassT
	}
	return npb.ClassS
}

// Result is the common interface of all experiment outputs.
type Result interface {
	// Name identifies the experiment ("Table 3", "Figure 9", ...).
	Name() string
	// Render returns a human-readable table.
	Render() string
	// ShapeErrors lists violated shape expectations (empty = reproduced).
	ShapeErrors() []string
}

// runBenchmark executes one NPB workload on a machine and returns elapsed
// timed cycles plus the finished task.
func runBenchmark(m *machine.Machine, name string, class npb.Class, migrate bool) (sim.Cycles, *kernel.Task, error) {
	w, err := npb.New(name, class)
	if err != nil {
		return 0, nil, err
	}
	var cycles sim.Cycles
	res, err := m.RunSingle(name, mem.NodeX86, func(task *kernel.Task) error {
		if err := w.Run(task, migrate); err != nil {
			return err
		}
		cycles = task.TimedCycles()
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return cycles, res.Task, nil
}

// ratio formats a/b with a guard.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tableWriter builds aligned text tables.
// find returns the first of rows that match accepts: the one row lookup
// every result's cell accessors share.
func find[R any](rows []R, match func(R) bool) (R, bool) {
	for _, row := range rows {
		if match(row) {
			return row, true
		}
	}
	var zero R
	return zero, false
}

type tableWriter struct {
	header []string
	rows   [][]string
}

func (tw *tableWriter) addRow(cells ...string) { tw.rows = append(tw.rows, cells) }

func (tw *tableWriter) String() string {
	widths := make([]int, len(tw.header))
	for i, h := range tw.header {
		widths[i] = len(h)
	}
	for _, r := range tw.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(tw.header)
	sep := make([]string, len(tw.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range tw.rows {
		line(r)
	}
	return sb.String()
}

// f1, f2, fx format numbers compactly.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fi(v int64) string   { return fmt.Sprintf("%d", v) }
func fp(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
