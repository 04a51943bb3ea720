package experiments

import (
	"fmt"
	"io"

	"repro/internal/hwref"
)

// Spec names one experiment and how to run it.
type Spec struct {
	ID string
	// Run executes the experiment at scale s, driving at most rows of its
	// independent machine runs at once on host goroutines. Experiments
	// without rows ignore the width; no width changes a result.
	Run func(s Scale, rows int) (Result, error)
}

// All returns every table/figure runner in paper order.
func All() []Spec {
	return []Spec{
		{"table2", func(Scale, int) (Result, error) { return Table2(), nil }},
		{"fig5-6-small", func(Scale, int) (Result, error) { return Figure5_6(hwref.SmallPair()) }},
		{"fig5-6-big", func(Scale, int) (Result, error) { return Figure5_6(hwref.BigPair()) }},
		{"fig7-small", func(s Scale, _ int) (Result, error) { return Figure7(hwref.SmallPair(), s) }},
		{"fig7-big", func(s Scale, _ int) (Result, error) { return Figure7(hwref.BigPair(), s) }},
		{"fig8", func(s Scale, _ int) (Result, error) { return Figure8(s) }},
		{"table3", func(s Scale, _ int) (Result, error) { return Table3(s) }},
		{"table4", func(s Scale, _ int) (Result, error) { return Table4(s) }},
		{"fig9", func(s Scale, _ int) (Result, error) { return Figure9(s) }},
		{"fig10", func(s Scale, _ int) (Result, error) { return Figure10(s) }},
		{"fig11", func(s Scale, _ int) (Result, error) { return Figure11(s) }},
		{"fig12", func(s Scale, _ int) (Result, error) { return Figure12(s) }},
		{"fig13", func(s Scale, _ int) (Result, error) { return Figure13(s) }},
		{"fig14", func(s Scale, _ int) (Result, error) { return Figure14(s) }},
		{"ablation-remote-alloc", func(s Scale, _ int) (Result, error) { return AblationRemoteAlloc(s) }},
		{"ablation-ipi", func(s Scale, _ int) (Result, error) { return AblationIPI(s) }},
	}
}

// Extra returns the runners that are not part of the paper's evaluation
// and therefore not in the default full run (whose output is pinned by
// experiments_full.txt): reproduction-only experiments built on machinery
// the paper did not sweep. They are addressable by -only and listed by
// -list like any other spec.
func Extra() []Spec {
	return []Spec{
		{"multicore", Multicore},
		{"filesys", Filesys},
		{"cluster", Cluster},
		{"redisprod", Redisprod},
		{"tenants", Tenants},
	}
}

// Find returns the spec with the given id, searching the paper set and the
// extras.
func Find(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	for _, s := range Extra() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// reportResult writes one finished result in the canonical report format.
func reportResult(w io.Writer, res Result, shape []string) {
	fmt.Fprintf(w, "== %s ==\n", res.Name())
	fmt.Fprint(w, res.Render())
	if len(shape) == 0 {
		fmt.Fprintf(w, "shape: REPRODUCED\n\n")
	} else {
		fmt.Fprintf(w, "shape: %d DEVIATION(S)\n", len(shape))
		for _, e := range shape {
			fmt.Fprintf(w, "  - %s\n", e)
		}
		fmt.Fprintln(w)
	}
}
