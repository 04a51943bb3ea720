package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
	"repro/internal/vfs"
)

// The exactness pin holds three quick redisprod cells to every number a
// host-only change to the serving path could move without a shape check
// noticing: the traffic figures and digests, every task's counters and
// final clock, both nodes' cache counters per machine and per core, each
// CPU's dispatch, preemption and busy counters, and the engine's segment
// accounting. The 1-core cell is the one where worker 0 time-slices the
// frontend's CPU and the Arm worker takes snoops on the rings the x86
// frontend writes. testdata/pins/redisprod_exact.txt was captured from the
// worker wait loops spinning through the engine at every yield point.

// exactCells are the pinned (kind, regime, cores) cells.
var exactCells = []struct {
	kind   redisapp.KeyspaceKind
	regime vfs.Regime
	cores  int
}{
	{redisapp.KSSharded, vfs.RegimeFused, 2},
	{redisapp.KSLocked, vfs.RegimePopcorn, 2},
	{redisapp.KSSharded, vfs.RegimeFused, 1},
}

// exactRun is one quick redisprod cell run to completion.
type exactRun struct {
	cl      *machine.Cluster
	server  *kernel.Task
	st      redisapp.ProdStats
	traffic redisapp.TrafficResult
}

// runProdCell runs one cell with traffic p the way redisprodRun does (one
// server), keeping the server task.
func runProdCell(p redisapp.TrafficParams, kind redisapp.KeyspaceKind, regime vfs.Regime, cores int) (*exactRun, error) {
	cl, err := machine.NewCluster([]machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
			Cores: cores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
	}, net.DefaultFabricConfig())
	if err != nil {
		return nil, err
	}
	if p.Port == 0 {
		p.Port = 6379
	}
	pp := redisapp.ProdParams{Kind: kind, Cores: cores, Port: p.Port, PayloadBytes: p.PayloadBytes,
		Keys: p.Keys, ExtraCompute: p.ServerCompute, Expected: p.Requests}
	r := &exactRun{cl: cl}
	_, err = cl.RunTasks(
		machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{
			Name: "redis-prod-0", Origin: mem.NodeX86, KeepAlive: true,
			Body: func(t *kernel.Task) error {
				r.server = t
				var err error
				r.st, err = redisapp.ServeProd(t, pp)
				return err
			},
		}},
		machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{
			Name: "loadgen", Origin: mem.NodeX86, KeepAlive: true, Start: 2000,
			Body: func(t *kernel.Task) error {
				var err error
				r.traffic, err = redisapp.GenerateTraffic(t, []net.Addr{{Mach: 1, Port: p.Port}}, p)
				return err
			},
		}},
	)
	return r, err
}

// exactDump runs one cell and renders everything the pin holds, one fact
// per line.
func exactDump(kind redisapp.KeyspaceKind, regime vfs.Regime, cores int) (string, error) {
	r, err := runProdCell(redisprodParams(Quick), kind, regime, cores)
	if err != nil {
		return "", err
	}
	cl, server, st, traffic := r.cl, r.server, r.st, r.traffic
	var b strings.Builder
	fmt.Fprintf(&b, "traffic %+v\n", traffic)
	fmt.Fprintf(&b, "server served=%d misses=%d workers=%d serve=%d live=%#x replay=%#x aof=%d/%dB\n",
		st.Served, st.Misses, st.Workers, st.ServeCycles, st.LiveDigest, st.ReplayDigest, st.AOFRecords, st.AOFFileBytes)
	for w, ws := range st.PerWorker {
		fmt.Fprintf(&b, "worker%d %+v\n", w, ws)
	}
	for _, t := range server.Proc.Tasks {
		fmt.Fprintf(&b, "task %s now=%d on %v/%d %+v\n", t.Name, t.Th.Now(), t.Node, t.Core, t.Stats)
	}
	for mi, m := range cl.Machines {
		for n := mem.NodeID(0); n < 2; n++ {
			fmt.Fprintf(&b, "m%d %v cache %+v\n", mi, n, m.CacheStats(n))
			for c := 0; c < m.Sched.Cores(n); c++ {
				fmt.Fprintf(&b, "m%d %v core%d %+v\n", mi, n, c, m.Plat.Caches.CoreStats(n, c))
				cpu := m.Sched.CPUOf(n, c)
				fmt.Fprintf(&b, "m%d %v cpu%d dispatches=%d preemptions=%d busy=%d\n",
					mi, n, c, cpu.Dispatches, cpu.Preemptions, cpu.Busy)
			}
		}
	}
	es := cl.EngineStats()
	fmt.Fprintf(&b, "engine serial_segments=%d serial_cycles=%d\n", es.SerialSegments, es.SerialCycles)
	return b.String(), nil
}

// exactPin is the redisprod-exact pin file.
const exactPin = "testdata/pins/redisprod_exact.txt"

// exactOnce is exactAll run once per test binary: TestPins and
// TestRedisprodExactPinned check the same render.
var exactOnce = sync.OnceValues(exactAll)

// exactAll renders every cell in exactCells: the redisprod-exact pin.
func exactAll() (string, error) {
	var b strings.Builder
	for _, c := range exactCells {
		d, err := exactDump(c.kind, c.regime, c.cores)
		if err != nil {
			return "", fmt.Errorf("%v/%v/%dc: %w", c.kind, c.regime, c.cores, err)
		}
		fmt.Fprintf(&b, "== %v/%v/%dc\n%s", c.kind, c.regime, c.cores, d)
	}
	return b.String(), nil
}

// TestRedisprodExactPinned checks the redisprod-exact pin on its own, for
// a run selecting only the redisprod tests; TestPins checks the same
// render.
func TestRedisprodExactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three redisprod cells")
	}
	testPin(t, pin{"redisprod-exact", exactPin, false, exactOnce})
}

// TestRedisprodEngineStatsPinned holds the engine columns the redisprod
// experiment reports for its quick sharded/fused/2c cell to the engine
// line the redisprod-exact pin holds for that cell, so the experiment's
// own path (redisprodRun) and the pin's (runProdCell) cannot drift apart.
// A hand-off is a serial segment, so handoffs equals serial_segments.
func TestRedisprodEngineStatsPinned(t *testing.T) {
	raw, err := os.ReadFile(exactPin)
	if err != nil {
		t.Fatal(err)
	}
	cell, _, _ := strings.Cut(strings.TrimPrefix(string(raw), "== sharded/fused/2c\n"), "\n== ")
	i := strings.LastIndex(cell, "\nengine ")
	if !strings.HasPrefix(string(raw), "== sharded/fused/2c\n") || i < 0 {
		t.Fatalf("%s does not open with the sharded/fused/2c cell and its engine line", exactPin)
	}
	var segs, cycles int64
	if _, err := fmt.Sscanf(cell[i+1:], "engine serial_segments=%d serial_cycles=%d", &segs, &cycles); err != nil {
		t.Fatalf("%s: sharded/fused/2c engine line: %v", exactPin, err)
	}
	row, err := redisprodRun(redisapp.KSSharded, vfs.RegimeFused, 2, redisprodParams(Quick))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int64{
		"serial_segments": segs,
		"serial_cycles":   cycles,
		"handoffs":        segs,
	} {
		if got := row.Engine[k]; got != want {
			t.Errorf("sharded/fused/2c %s = %d, want %d", k, got, want)
		}
	}
}

// TestRedisprodWorkersPark is the spin-parking mechanism guard on the
// quick sharded/fused/2c cell: the workers that hold a CPU of their own
// replay at least 90 % of their wait-loop yield points instead of running
// them. Worker 0 shares x86 core 0 with the frontend, whose run-queue
// turn keeps it from parking.
func TestRedisprodWorkersPark(t *testing.T) {
	r, err := runProdCell(redisprodParams(Quick), redisapp.KSSharded, vfs.RegimeFused, 2)
	if err != nil {
		t.Fatal(err)
	}
	var replayed int64
	for _, task := range r.server.Proc.Tasks[1:] {
		ran, rep := task.SpinYields()
		replayed += rep
		share := float64(rep) / float64(ran+rep)
		t.Logf("%s on %v/%d: %d yield points run, %d replayed (%.1f %%)", task.Name, task.Node, task.Core, ran, rep, 100*share)
		if task.Name == "redis-worker0" {
			if rep != 0 {
				t.Errorf("%s shares its CPU with the frontend yet replayed %d yield points", task.Name, rep)
			}
		} else if share < 0.9 {
			t.Errorf("%s replayed %.1f %% of its wait-loop yield points, want at least 90 %%", task.Name, 100*share)
		}
	}
	if es := r.cl.EngineStats(); es.Replayed != replayed+es.LockReplayed {
		t.Errorf("engine replayed %d yield points, the workers %d and the lock spins %d",
			es.Replayed, replayed, es.LockReplayed)
	}
}

// TestRedisprodLockSpinsPark is the lock-spin parking guard on a quick
// all-SET sharded/popcorn/4c cell, where every request appends to the AOF
// under its inode's append lock, through the page cache's locks and the
// messenger's: at least 90 % of the lock spins' yield points are replayed
// instead of run (sim.Thread.SpinWhile). Nearly all the rest are worker
// 0's: it shares x86 core 0 with the frontend, and while the frontend is
// queued there its preemption hook is not pure.
func TestRedisprodLockSpinsPark(t *testing.T) {
	p := redisprodParams(Quick)
	p.SetEvery = 1
	r, err := runProdCell(p, redisapp.KSSharded, vfs.RegimePopcorn, 4)
	if err != nil {
		t.Fatal(err)
	}
	es := r.cl.EngineStats()
	share := float64(es.LockReplayed) / float64(es.LockYields+es.LockReplayed)
	t.Logf("lock spins: %d yield points run, %d replayed (%.1f %%)", es.LockYields, es.LockReplayed, 100*share)
	if share < 0.9 {
		t.Errorf("lock spins replayed %.1f %% of their yield points, want at least 90 %%", 100*share)
	}
}
