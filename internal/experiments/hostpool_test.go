package experiments

// Host-side widths must never change results: the row width RunPool hands
// a spec runs its independent rows concurrently, GOMAXPROCS sets how many
// host threads the Go runtime may use, and the engine's driver counters
// describe how Run moved the host CPU, never what it simulated. Every
// width here is a call argument, so these tests share no process state.

import (
	"bytes"
	"runtime"
	"testing"
)

// renderSpec runs one spec at the given scale and row width and returns
// the canonical rendered report plus the exported metrics map (nil when
// the result does not implement CycleMetrics).
func renderSpec(t *testing.T, spec Spec, scale Scale, rows int) (string, map[string]int64) {
	t.Helper()
	res, err := spec.Run(scale, rows)
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	var buf bytes.Buffer
	reportResult(&buf, res, res.ShapeErrors())
	var metrics map[string]int64
	if cm, ok := res.(CycleMetrics); ok {
		metrics = cm.Metrics()
	}
	return buf.String(), metrics
}

// diffSpec runs one spec twice in this process, once with rows run one at
// a time and once pooled rows at a time, and demands identical rendered
// reports and exported metrics. Specs without row pools still run twice,
// so state leaking from one run into the next shows up too.
func diffSpec(t *testing.T, spec Spec, scale Scale, rows int) {
	t.Helper()
	wantOut, wantMetrics := renderSpec(t, spec, scale, 1)
	gotOut, gotMetrics := renderSpec(t, spec, scale, rows)
	if gotOut != wantOut {
		t.Errorf("%s: rendered report diverged at rows=%d\nrows=1:\n%s\nrows=%d:\n%s",
			spec.ID, rows, wantOut, rows, gotOut)
	}
	if len(wantMetrics) != len(gotMetrics) {
		t.Errorf("%s: metric count diverged: %d vs %d", spec.ID, len(wantMetrics), len(gotMetrics))
	}
	for k, v := range wantMetrics {
		if gv, ok := gotMetrics[k]; !ok || gv != v {
			t.Errorf("%s: metric %q: rows=1 %d, rows=%d %d", spec.ID, k, v, rows, gv)
		}
	}
}

// shortDiffIDs is the subset exercised under -short: fig13's futex
// ping-pong and fig14's redis polling, the two experiments with the most
// cross-thread interleaving, plus the two row-pooled extras.
var shortDiffIDs = []string{"fig13", "fig14", "multicore", "filesys"}

// TestEngineDifferentialAllSpecs runs every paper experiment and every
// extra at Quick scale, unpooled and then at row width 4, and demands
// byte-identical reports and metrics. Under -short only shortDiffIDs run.
func TestEngineDifferentialAllSpecs(t *testing.T) {
	specs := append(All(), Extra()...)
	if testing.Short() {
		var subset []Spec
		for _, id := range shortDiffIDs {
			s, ok := Find(id)
			if !ok {
				t.Fatalf("unknown short-mode spec %q", id)
			}
			subset = append(subset, s)
		}
		specs = subset
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			diffSpec(t, spec, Quick, 4)
		})
	}
}

// TestEngineDifferentialGOMAXPROCS re-runs the futex experiment at host
// parallelism 1, 2 and 8: simulated results must not notice how many host
// threads the runtime schedules the simulation's coroutines on.
func TestEngineDifferentialGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS differential is long; run without -short")
	}
	spec, _ := Find("fig13")
	want, _ := renderSpec(t, spec, Quick, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got, _ := renderSpec(t, spec, Quick, 1); got != want {
			t.Errorf("GOMAXPROCS=%d: fig13 report diverged", procs)
		}
	}
}

// TestEngineHostPoolRows drives the row-pooled experiments (every extra)
// at row width 2 against width 1 through Spec.Run's width argument; result
// assembly is by row index, so the report must be identical at any width.
// Width 4 is TestEngineDifferentialAllSpecs', except under -short, which
// runs only some extras there and width 4 here instead.
func TestEngineHostPoolRows(t *testing.T) {
	for _, spec := range Extra() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			want, _ := renderSpec(t, spec, Quick, 1)
			widths := []int{2}
			if testing.Short() {
				widths = []int{4}
			}
			for _, rows := range widths {
				if got, _ := renderSpec(t, spec, Quick, rows); got != want {
					t.Errorf("rows=%d: %s diverged", rows, spec.ID)
				}
			}
		})
	}
}
