package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// extraOnly demands that the extra id is reachable through Find and
// Extra but stays out of All(), whose full-scale output is pinned
// byte-for-byte by experiments_full.txt.
func extraOnly(t *testing.T, id string) {
	if _, ok := Find(id); !ok {
		t.Fatalf("Find does not know the %s experiment", id)
	}
	if slices.ContainsFunc(All(), func(s Spec) bool { return s.ID == id }) {
		t.Errorf("%s is in All(); that changes the pinned full-run output", id)
	}
	if !slices.ContainsFunc(Extra(), func(s Spec) bool { return s.ID == id }) {
		t.Errorf("%s missing from Extra()", id)
	}
}

func TestMulticoreRegistry(t *testing.T) { extraOnly(t, "multicore") }

// deterministic demands that the spec id renders byte-identically when run
// directly, through a width-1 pool (the sequential reference), and twice
// concurrently under the parallel pool, and reproduces its shape at quick
// scale. It returns the direct result.
func deterministic(t *testing.T, id string) Result {
	spec, ok := Find(id)
	if !ok {
		t.Fatalf("%s spec not found", id)
	}
	direct, err := spec.Run(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var seq, viaPool bytes.Buffer
	if _, err := Report(&seq, RunPool([]Spec{spec}, Quick, 1)); err != nil {
		t.Fatal(err)
	}
	pooled := RunPool([]Spec{spec, spec}, Quick, 2)
	for i, o := range pooled {
		if o.Err != nil {
			t.Fatalf("pooled run %d: %v", i, o.Err)
		}
	}
	if a, b := direct.Render(), pooled[0].Result.Render(); a != b {
		t.Errorf("direct and pooled renderings differ:\n--- direct\n%s\n--- pooled\n%s", a, b)
	}
	if a, b := pooled[0].Result.Render(), pooled[1].Result.Render(); a != b {
		t.Errorf("two concurrent pooled runs render differently:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if _, err := Report(&viaPool, pooled[:1]); err != nil {
		t.Fatal(err)
	}
	if seq.String() != viaPool.String() {
		t.Errorf("sequential report differs from pooled report:\n--- seq\n%s\n--- pool\n%s", seq.String(), viaPool.String())
	}
	if shape := direct.ShapeErrors(); len(shape) != 0 {
		t.Errorf("shape deviations at quick scale: %v", shape)
	}
	return direct
}

// TestMulticoreDeterminism is the multi-core determinism golden: the sweep
// (whose 4-core point runs four cloned workers over four strictly
// scheduled CPUs) is deterministic, and every core of its 4-core row was
// exercised (nonzero per-core L1D traffic).
func TestMulticoreDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mr := deterministic(t, "multicore").(*MulticoreResult)
	var got4 bool
	for _, row := range mr.Rows {
		if row.Cores != 4 {
			continue
		}
		got4 = true
		if len(row.CoreL1D) != 4 {
			t.Fatalf("4-core row has %d per-core counters", len(row.CoreL1D))
		}
		for c, v := range row.CoreL1D {
			if v == 0 {
				t.Errorf("4-core run: core %d has no L1D accesses", c)
			}
		}
	}
	if !got4 {
		t.Error("sweep has no 4-core row")
	}
}

// TestMulticoreMetrics: the -json export must carry per-core utilization
// and cache counters for every swept core count (the CycleMetrics side of
// the experiment).
func TestMulticoreMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Multicore(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(CycleMetrics).Metrics()
	for _, key := range []string{
		"cycles/1cores", "cycles/2cores", "cycles/4cores",
		"speedup_bp/4cores", "preemptions/1cores", "dispatches/2cores",
		"util_bp/1cores/core0", "util_bp/4cores/core3", "l1d/2cores/core1",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	for k, v := range m {
		if strings.HasPrefix(k, "util_bp/") && (v < 0 || v > 10000) {
			t.Errorf("%s = %d, want a basis-point utilization in [0, 10000]", k, v)
		}
		if strings.HasPrefix(k, "cycles/") && v <= 0 {
			t.Errorf("%s = %d, want positive", k, v)
		}
	}
}
