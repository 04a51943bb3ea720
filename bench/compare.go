package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is -compare's answer for one (workload, metric) pair.
type verdict string

const (
	vOK         verdict = "ok"
	vRegressed  verdict = "regressed"
	vUnresolved verdict = "unresolved"
	vInfo       verdict = "info"
)

// worsening is how much worse b reads than a, as a share of a, in the
// metric's own direction (negative = b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	if d.Better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// judge applies one metric's bound. Simulated numbers repeat exactly, so
// they get no spread allowance. A host metric whose repetitions spread
// wider than its bound cannot be called unchanged or regressed — it is
// unresolved — unless every sample of b beats every sample of a.
func judge(d metricDef, a, b result) (verdict, float64) {
	w := worsening(d, a.Metrics[d.Name], b.Metrics[d.Name])
	if d.Info {
		return vInfo, w
	}
	if d.Exact && w != 0 && a.Env.TrafficSeed != b.Env.TrafficSeed {
		return vUnresolved, w // different traffic samples: the difference says nothing about the code
	}
	sa, okA := a.Host[d.Name]
	sb, okB := b.Host[d.Name]
	if !d.Exact && okA && okB && sa.Median != 0 {
		spread := math.Max(sa.Q3-sa.Q1, sb.Q3-sb.Q1) / math.Abs(sa.Median)
		if spread > d.Bound && !allBetter(d, sa.Samples, sb.Samples) {
			return vUnresolved, w
		}
	}
	if w > d.Bound {
		return vRegressed, w
	}
	return vOK, w
}

func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareLedgers judges ledger b against baseline a on every end-to-end
// metric of every workload both hold, and returns the exit code.
func compareLedgers(pathA, pathB string, w io.Writer) int {
	la, err := readLedger(pathA)
	if err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		return exitUsage
	}
	lb, err := readLedger(pathB)
	if err != nil {
		fmt.Fprintln(errOut, "bench:", err)
		return exitUsage
	}
	return compareRuns(la.Runs, lb.Runs, w)
}

func compareRuns(as, bs []result, w io.Writer) int {
	find := func(rs []result, name string) *result {
		for i := range rs {
			if rs[i].Workload == name && rs[i].Mode == "e2e" {
				return &rs[i]
			}
		}
		return nil
	}
	code, compared := exitOK, 0
	defs := append(append([]metricDef(nil), endToEnd...), ungated...)
	fmt.Fprintf(w, "%-14s %-20s %18s %18s %9s  %s\n", "workload", "metric", "a", "b", "worse by", "verdict")
	for _, name := range workloadNames {
		a, b := find(as, name), find(bs, name)
		if a == nil || b == nil {
			fmt.Fprintf(w, "%-14s missing from one ledger, skipped\n", name)
			continue
		}
		compared++
		for _, d := range defs {
			v, worse := judge(d, *a, *b)
			fmt.Fprintf(w, "%-14s %-20s %18.6f %18.6f %+8.2f%%  %s\n", name, d.Name, a.Metrics[d.Name], b.Metrics[d.Name], 100*worse, v)
			if v == vRegressed {
				code = exitRegressed
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(errOut, "bench: the ledgers share no end-to-end workload record")
		return exitUsage
	}
	return code
}
