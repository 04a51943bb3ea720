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

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/redisapp"
	"repro/internal/vfs"
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
// at row widths 1, 2 and 4 through Spec.Run's width argument; result
// assembly is by row index, so the report must be identical at any width.
func TestEngineHostPoolRows(t *testing.T) {
	for _, spec := range Extra() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			want, _ := renderSpec(t, spec, Quick, 1)
			widths := []int{2, 4}
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

// TestRedisprodEngineStatsPinned pins the engine's segment accounting for
// one quick-scale redisprod cell to the numbers the two-channel engine
// produced (captured from `stramash-bench -only redisprod -scale quick`'s
// engine_stats on the commit before the coroutine hand-off). How the
// engine moves the host CPU between threads is free to change; what it
// counts as a segment is not.
func TestRedisprodEngineStatsPinned(t *testing.T) {
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

// TestClusterCellsPinned pins the serving cells of the cluster experiment
// at a small request count: every client-visible traffic figure plus the
// engine's hand-offs and simulated cycles, across both personalities, one
// and four servers, read-only and mixed traffic, and with and without
// per-request server compute. The values were captured from the dedicated
// single-task socket server before it became ServeProd's zero-worker
// configuration. The cycle total catches work the traffic cannot see:
// the generator's clock starts once every server has answered its
// connect, so a cost every server pays before serving shifts no latency.
func TestClusterCellsPinned(t *testing.T) {
	type pin struct {
		done, misses      int
		digest            uint64
		p50, p99, elapsed int64
		handoffs, cycles  int64
	}
	cases := []struct {
		os       machine.OSKind
		model    mem.Model
		servers  int
		setEvery int
		compute  int64
		want     pin
	}{
		{machine.StramashOS, mem.Shared, 1, 0, 0, pin{40, 0, 0x169faf8c25daa4bd, 474010, 618667, 643867, 906, 1677752}},
		{machine.StramashOS, mem.Shared, 1, 0, 20000, pin{40, 0, 0x169faf8c25daa4bd, 1208603, 1564939, 1592239, 2297, 3574476}},
		{machine.StramashOS, mem.Shared, 1, 10, 0, pin{40, 0, 0xb36b3fed313f1a6c, 478030, 613635, 640935, 794, 1671868}},
		{machine.StramashOS, mem.Shared, 1, 10, 20000, pin{40, 0, 0xb36b3fed313f1a6c, 1214819, 1554780, 1579280, 2421, 3560073}},
		{machine.StramashOS, mem.Shared, 4, 0, 0, pin{40, 0, 0x169faf8c25daa4bd, 309549, 475439, 503439, 826, 3806765}},
		{machine.StramashOS, mem.Shared, 4, 0, 20000, pin{40, 0, 0x169faf8c25daa4bd, 498989, 687750, 715750, 861, 4973053}},
		{machine.StramashOS, mem.Shared, 4, 10, 0, pin{40, 0, 0xb36b3fed313f1a6c, 321171, 425185, 450385, 1013, 3667191}},
		{machine.StramashOS, mem.Shared, 4, 10, 20000, pin{40, 0, 0xb36b3fed313f1a6c, 590729, 699107, 724307, 1221, 5049931}},
		{machine.PopcornSHM, mem.Separated, 1, 0, 0, pin{40, 0, 0x169faf8c25daa4bd, 694055, 803956, 828456, 1138, 2228138}},
		{machine.PopcornSHM, mem.Separated, 1, 0, 20000, pin{40, 0, 0x169faf8c25daa4bd, 1450608, 1751895, 1779195, 2685, 4129616}},
		{machine.PopcornSHM, mem.Separated, 1, 10, 0, pin{40, 0, 0xb36b3fed313f1a6c, 875703, 959835, 983635, 1391, 2549414}},
		{machine.PopcornSHM, mem.Separated, 1, 10, 20000, pin{40, 0, 0xb36b3fed313f1a6c, 1649086, 1915664, 1943664, 2970, 4458554}},
		{machine.PopcornSHM, mem.Separated, 4, 0, 0, pin{40, 0, 0x169faf8c25daa4bd, 531682, 652353, 680353, 945, 5378173}},
		{machine.PopcornSHM, mem.Separated, 4, 0, 20000, pin{40, 0, 0x169faf8c25daa4bd, 761954, 939812, 966757, 1271, 6872722}},
		{machine.PopcornSHM, mem.Separated, 4, 10, 0, pin{40, 0, 0xb36b3fed313f1a6c, 598422, 804954, 829454, 1157, 5921268}},
		{machine.PopcornSHM, mem.Separated, 4, 10, 20000, pin{40, 0, 0xb36b3fed313f1a6c, 854392, 1082045, 1100945, 1450, 7297235}},
	}
	for _, c := range cases {
		p := clusterParams(Quick)
		p.Requests, p.SetEvery, p.ServerCompute = 40, c.setEvery, c.compute
		row, err := clusterRun(c.os, c.model, c.servers, p)
		if err != nil {
			t.Fatal(err)
		}
		tr := row.Traffic
		got := pin{tr.Done, tr.Misses, tr.Digest, int64(tr.P50), int64(tr.P99), int64(tr.Elapsed), row.Engine["handoffs"], row.Engine["serial_cycles"]}
		if got != c.want {
			t.Errorf("%v/%dsrv set=%d compute=%d:\n got %#v\nwant %#v", c.os, c.servers, c.setEvery, c.compute, got, c.want)
		}
	}
}
