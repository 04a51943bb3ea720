package experiments

// Host-side knobs must never change results: -hostprocs runs an
// experiment's independent rows concurrently, GOMAXPROCS sets how many
// host threads the Go runtime may use, and the engine's driver counters
// describe how Run moved the host CPU, never what it simulated.

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/redisapp"
	"repro/internal/vfs"
)

// withHostProcs runs fn with HostProcs overridden and restores it
// afterwards. The knob is process-global, so tests using this helper must
// not run in parallel with each other.
func withHostProcs(procs int, fn func()) {
	prev := HostProcs
	defer func() { HostProcs = prev }()
	HostProcs = procs
	fn()
}

// renderSpec runs one spec at the given scale and returns the canonical
// rendered report plus the exported metrics map (nil when the result does
// not implement CycleMetrics).
func renderSpec(t *testing.T, spec Spec, scale Scale) (string, map[string]int64) {
	t.Helper()
	var buf bytes.Buffer
	res, _, err := RunAndReport(&buf, spec, scale)
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	var metrics map[string]int64
	if cm, ok := res.(CycleMetrics); ok {
		metrics = cm.Metrics()
	}
	return buf.String(), metrics
}

// diffSpec runs one spec twice in this process, once with rows run one at
// a time and once pooled across hostprocs workers, and demands identical
// rendered reports and exported metrics. Specs without row pools still
// run twice, so state leaking from one run into the next shows up too.
func diffSpec(t *testing.T, spec Spec, scale Scale, hostprocs int) {
	t.Helper()
	var wantOut, gotOut string
	var wantMetrics, gotMetrics map[string]int64
	withHostProcs(1, func() { wantOut, wantMetrics = renderSpec(t, spec, scale) })
	withHostProcs(hostprocs, func() { gotOut, gotMetrics = renderSpec(t, spec, scale) })
	if gotOut != wantOut {
		t.Errorf("%s: rendered report diverged at hostprocs=%d\nhostprocs=1:\n%s\nhostprocs=%d:\n%s",
			spec.ID, hostprocs, wantOut, hostprocs, gotOut)
	}
	if len(wantMetrics) != len(gotMetrics) {
		t.Errorf("%s: metric count diverged: %d vs %d", spec.ID, len(wantMetrics), len(gotMetrics))
	}
	for k, v := range wantMetrics {
		if gv, ok := gotMetrics[k]; !ok || gv != v {
			t.Errorf("%s: metric %q: hostprocs=1 %d, hostprocs=%d %d", spec.ID, k, v, hostprocs, gv)
		}
	}
}

// shortDiffIDs is the subset exercised under -short: fig13's futex
// ping-pong and fig14's redis polling, the two experiments with the most
// cross-thread interleaving, plus the two row-pooled extras.
var shortDiffIDs = []string{"fig13", "fig14", "multicore", "filesys"}

// TestEngineDifferentialAllSpecs runs every paper experiment and every
// extra at Quick scale, unpooled and then at -hostprocs 4, and demands
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
	want, _ := renderSpec(t, spec, Quick)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got, _ := renderSpec(t, spec, Quick); got != want {
			t.Errorf("GOMAXPROCS=%d: fig13 report diverged", procs)
		}
	}
}

// TestEngineHostPoolRows drives the row-pooled experiments (multicore
// rows, filesys cells) at several -hostprocs widths; result assembly is
// by row index, so the report must be identical at any width.
func TestEngineHostPoolRows(t *testing.T) {
	for _, spec := range Extra() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			var want string
			withHostProcs(1, func() { want, _ = renderSpec(t, spec, Quick) })
			widths := []int{2, 4}
			if testing.Short() {
				widths = []int{4}
			}
			for _, procs := range widths {
				var got string
				withHostProcs(procs, func() { got, _ = renderSpec(t, spec, Quick) })
				if got != want {
					t.Errorf("hostprocs=%d: %s diverged", procs, spec.ID)
				}
			}
		})
	}
}

// TestRedisprodEngineStatsPinned pins the engine's segment accounting for
// one quick-scale redisprod cell to the numbers the two-channel engine
// produced (captured with `stramash-bench -only redisprod -scale quick
// -engine-stats` on the commit before the coroutine hand-off). How the
// engine moves the host CPU between threads is free to change; what it
// counts as a segment is not.
func TestRedisprodEngineStatsPinned(t *testing.T) {
	prev := StatGate(GateEngine)
	SetStatGate(GateEngine, true)
	defer SetStatGate(GateEngine, prev)
	row, err := redisprodRun(redisapp.KSSharded, vfs.RegimeFused, 2, redisprodParams(Quick))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int64{
		"serial_segments": 261733,
		"serial_cycles":   49253862,
		"handoffs":        261733,
	} {
		if got := row.Engine[k]; got != want {
			t.Errorf("sharded/fused/2c %s = %d, want %d", k, got, want)
		}
	}
}
