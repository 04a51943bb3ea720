package experiments

// Differential tests for the host-parallel simulation engine at the
// experiment level. The engine contract is absolute: -engine=par is a
// wall-clock knob, never a results knob. Every test here runs the same
// experiment under the sequential driver and the parallel driver and
// demands byte-identical rendered reports and identical exported cycle
// metrics — at any GOMAXPROCS, any epoch length, and any -hostprocs row
// pooling.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// withEngine runs fn with the package-level engine knobs overridden and
// restores them afterwards. The knobs are process-global, so tests using
// this helper must not run in parallel with each other.
func withEngine(engine machine.EngineKind, epoch sim.Cycles, hostprocs int, fn func()) {
	prevEngine, prevEpoch, prevProcs := machine.DefaultEngine, machine.DefaultEpoch, HostProcs
	defer func() {
		machine.DefaultEngine, machine.DefaultEpoch, HostProcs = prevEngine, prevEpoch, prevProcs
	}()
	machine.DefaultEngine = engine
	if epoch > 0 {
		machine.DefaultEpoch = epoch
	}
	if hostprocs > 0 {
		HostProcs = hostprocs
	}
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

// diffSpec asserts one spec is identical under both drivers at the given
// epoch and host-pool width.
func diffSpec(t *testing.T, spec Spec, scale Scale, epoch sim.Cycles, hostprocs int) {
	t.Helper()
	var seqOut, parOut string
	var seqMetrics, parMetrics map[string]int64
	withEngine(machine.EngineSeq, 0, 1, func() {
		seqOut, seqMetrics = renderSpec(t, spec, scale)
	})
	withEngine(machine.EnginePar, epoch, hostprocs, func() {
		parOut, parMetrics = renderSpec(t, spec, scale)
	})
	if parOut != seqOut {
		t.Errorf("%s: rendered report diverged under parallel engine (epoch=%d hostprocs=%d)\nseq:\n%s\npar:\n%s",
			spec.ID, epoch, hostprocs, seqOut, parOut)
	}
	if len(seqMetrics) != len(parMetrics) {
		t.Errorf("%s: metric count diverged: seq %d, par %d", spec.ID, len(seqMetrics), len(parMetrics))
	}
	for k, v := range seqMetrics {
		if pv, ok := parMetrics[k]; !ok || pv != v {
			t.Errorf("%s: metric %q: seq %d, par %d", spec.ID, k, v, pv)
		}
	}
}

// shortDiffIDs is the subset exercised under -short: the two experiments
// that historically exposed engine divergences (fig13's futex ping-pong
// flushed out the DSM revocation hole, fig14's redis polling flushed out
// the read-hit ordering hole) plus the two row-pooled extras.
var shortDiffIDs = []string{"fig13", "fig14", "multicore", "filesys"}

// TestEngineDifferentialAllSpecs runs every paper experiment and both
// extras under the sequential and parallel drivers at Quick scale and
// demands byte-identical reports and metrics. Under -short only the
// historically sensitive subset runs.
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
			diffSpec(t, spec, Quick, 0, 4)
		})
	}
}

// TestEngineDifferentialGOMAXPROCS pins the historically divergent futex
// experiment and re-runs the parallel driver at host parallelism 1, 2,
// and 8: simulated results must not notice host scheduling.
func TestEngineDifferentialGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS differential is long; run without -short")
	}
	spec, _ := Find("fig13")
	var want string
	withEngine(machine.EngineSeq, 0, 1, func() {
		want, _ = renderSpec(t, spec, Quick)
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		var got string
		withEngine(machine.EnginePar, 0, 1, func() {
			got, _ = renderSpec(t, spec, Quick)
		})
		if got != want {
			t.Errorf("GOMAXPROCS=%d: parallel engine diverged", procs)
		}
	}
}

// TestEngineEpochMetamorphic varies only the epoch length on one real
// experiment. Coarse, default, and fine epochs must all render the exact
// sequential report; the degenerate 1-cycle epoch is covered at the sim
// layer where a run is cheap enough to afford a barrier per cycle.
func TestEngineEpochMetamorphic(t *testing.T) {
	if testing.Short() {
		t.Skip("epoch sweep is long; run without -short")
	}
	spec, _ := Find("fig13")
	var want string
	withEngine(machine.EngineSeq, 0, 1, func() {
		want, _ = renderSpec(t, spec, Quick)
	})
	for _, epoch := range []sim.Cycles{1000, sim.DefaultEpoch, 10 * sim.DefaultEpoch} {
		var got string
		withEngine(machine.EnginePar, epoch, 1, func() {
			got, _ = renderSpec(t, spec, Quick)
		})
		if got != want {
			t.Errorf("epoch=%d: parallel engine diverged", epoch)
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
			withEngine(machine.EngineSeq, 0, 1, func() {
				want, _ = renderSpec(t, spec, Quick)
			})
			widths := []int{2, 4}
			if testing.Short() {
				widths = []int{4}
			}
			for _, procs := range widths {
				var got string
				withEngine(machine.EnginePar, 0, procs, func() {
					got, _ = renderSpec(t, spec, Quick)
				})
				if got != want {
					t.Errorf("hostprocs=%d: %s diverged", procs, spec.ID)
				}
			}
		})
	}
}

// tinyCluster runs a small ClusterBench topology under one explicit engine
// choice (set per-Config, so no process-global knob is touched) and returns
// a fingerprint of everything determinism must pin: the full traffic
// measurement (digest, latencies, elapsed), every server's accounting, and
// every machine's NIC counters.
func tinyCluster(t testing.TB, engine machine.EngineKind, epoch sim.Cycles,
	servers, requests int, seed uint64) string {
	cfgs := make([]machine.Config, servers+1)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: mem.Shared, OS: machine.StramashOS,
			Engine: engine, EpochCycles: epoch}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	r, err := redisapp.ClusterBench(cl, redisapp.TrafficParams{
		Requests: requests, Clients: 8, PayloadBytes: 96, Keys: 8,
		ZipfS: 1.0, InterArrival: 700, SetEvery: 3, Seed: seed,
	})
	if err != nil {
		t.Fatalf("ClusterBench(%d servers, %d requests): %v", servers, requests, err)
	}
	fp := fmt.Sprintf("traffic=%+v per=%+v", r.Traffic, r.PerServer)
	for m := range cl.Machines {
		fp += fmt.Sprintf(" nic%d=%+v", m, cl.NICStats(m))
	}
	return fp
}

// TestClusterEngineEpochSweep is the cluster arm of the differential
// battery: a two-machine ClusterBench (claimed stacks, domain-phase socket
// fast paths) must match the sequential oracle at every epoch length —
// including the degenerate 1-cycle epoch, which forces a barrier at every
// horizon and so exercises maximal phase/serial interleaving — and at host
// parallelism 1, 2 and 8.
func TestClusterEngineEpochSweep(t *testing.T) {
	const servers, requests, seed = 1, 10, 7
	want := tinyCluster(t, machine.EngineSeq, 0, servers, requests, seed)
	epochs := []sim.Cycles{1, 64, 2048, sim.DefaultEpoch}
	if testing.Short() {
		epochs = []sim.Cycles{1, sim.DefaultEpoch}
	}
	for _, epoch := range epochs {
		if got := tinyCluster(t, machine.EnginePar, epoch, servers, requests, seed); got != want {
			t.Errorf("epoch=%d: cluster diverged from sequential oracle\nseq: %s\npar: %s",
				epoch, want, got)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := tinyCluster(t, machine.EnginePar, 0, servers, requests, seed); got != want {
			t.Errorf("GOMAXPROCS=%d: cluster diverged from sequential oracle", procs)
		}
	}
}

// FuzzClusterEpochSchedule fuzzes the cluster schedule space: random small
// topologies (1-3 servers), request counts, seeds and epoch lengths, each
// compared against the sequential oracle for the same topology. Any
// ordering hole the narrowed serial sections open — a socket fast path
// observing a frame earlier or later than the sequential schedule would —
// shows up as a fingerprint mismatch.
func FuzzClusterEpochSchedule(f *testing.F) {
	f.Add(uint8(1), uint8(6), uint32(1), uint64(7))
	f.Add(uint8(2), uint8(9), uint32(900), uint64(3))
	f.Add(uint8(3), uint8(12), uint32(20000), uint64(11))
	f.Fuzz(func(t *testing.T, servers, requests uint8, epoch uint32, seed uint64) {
		nS := 1 + int(servers)%3
		// Every server must have a share: ClusterBench rejects shapes where
		// a zero-expectation server would strand the generator's handshake.
		nR := nS + int(requests)%12
		ep := sim.Cycles(epoch % 200_000)
		want := tinyCluster(t, machine.EngineSeq, 0, nS, nR, seed)
		if got := tinyCluster(t, machine.EnginePar, ep, nS, nR, seed); got != want {
			t.Errorf("servers=%d requests=%d epoch=%d seed=%d: par diverged\nseq: %s\npar: %s",
				nS, nR, ep, seed, want, got)
		}
	})
}

// TestEngineTracedRunsFallBack: a machine built with a tracer must behave
// identically whether the default engine is seq or par, because trace
// streams are defined by the sequential schedule and RunParallel falls
// back to Run when a tracer is installed. Both the cycle count and the
// recorded event stream must match.
func TestEngineTracedRunsFallBack(t *testing.T) {
	seqCycles, seqBuf, err := tracedFutexRun(30, true)
	if err != nil {
		t.Fatal(err)
	}
	var parCycles sim.Cycles
	var parBuf interface {
		Len() int
	}
	withEngine(machine.EnginePar, 0, 1, func() {
		c, buf, perr := tracedFutexRun(30, true)
		if perr != nil {
			t.Fatal(perr)
		}
		parCycles, parBuf = c, buf
		if fmt.Sprintf("%+v", buf.Events) != fmt.Sprintf("%+v", seqBuf.Events) {
			t.Error("traced parallel run recorded a different event stream")
		}
	})
	if parCycles != seqCycles {
		t.Errorf("traced run cycles diverged: seq %d, par %d", seqCycles, parCycles)
	}
	if parBuf.Len() != seqBuf.Len() {
		t.Errorf("trace lengths diverged: seq %d, par %d", seqBuf.Len(), parBuf.Len())
	}
}

// TestRedisprodEngineStatsPinned pins the sequential driver's segment
// accounting for one quick-scale redisprod cell to the numbers the
// two-channel engine produced (captured with `stramash-bench -only
// redisprod -scale quick -engine seq -engine-stats` on the commit before
// the coroutine hand-off). How the engine moves the host CPU between
// threads is free to change; what it counts as a segment is not.
func TestRedisprodEngineStatsPinned(t *testing.T) {
	prev := StatGate(GateEngine)
	SetStatGate(GateEngine, true)
	defer SetStatGate(GateEngine, prev)
	withEngine(machine.EngineSeq, 0, 1, func() {
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
	})
}
