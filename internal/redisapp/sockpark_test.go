package redisapp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
)

// sockScenario is one cell of a load generator (machine 0) against a
// server (machine 1), whose idle polls park through kernel.Task.PollSock:
// the single-task server, or with cores the production frontend, whose
// polls also probe its workers' rings. Both pollers run on core (core 0
// takes the NICs' doorbell IRQs) of nodes with two cores, or one more
// than the workers use.
type sockScenario struct {
	name string
	gap  sim.Cycles // the traffic's inter-arrival gap
	core int
	// sched is both machines' policy; neighbour queues a computing task on
	// each poller's CPU. tenant makes both pollers a tenant's tasks, which
	// never park.
	sched             kernel.SchedPolicy
	quantum           sim.Cycles // replaces the engine quantum
	neighbour, tenant bool
	timed, parks      bool // some park ends by itself; the pollers park at all
	// cores gives the server two workers per core, on x86 and Arm cores
	// 0..cores-1, whose rings the frontend probes; setEvery is then the
	// traffic's (0: all GETs), clients its pipeline depth (0: 8), compute
	// the server's work per request (0: 2000 instructions) and genStart
	// the generator's start (0: 2000).
	cores, setEvery, clients int
	compute                  int64
	genStart                 sim.Cycles
	// tie writes the server's RX head, with the value it holds, at a
	// clock two of the parked frontend's ring-probe yield points share
	// (sockTie), from a thread ordered before the frontend's at equal
	// clocks with below, after it otherwise.
	tie, below bool
}

var sockScenarios = []sockScenario{
	// Responses and requests land in the parked pollers' RX rings; the
	// doorbell IRQs go to another core.
	{name: "rx disturbance", gap: 6000, core: 1, parks: true},
	// Between arrivals the generator has nothing in flight, so its parks
	// end at the next arrival.
	{name: "arrival bound", gap: 200_000, core: 1, timed: true, parks: true},
	// The fabric's enqueue reads the generator's RX ring through its own
	// L1D before writing the head.
	{name: "irq core is the poller's", gap: 6000, core: 0, parks: true},
	{name: "time-sliced CPU with a queued task", gap: 6000, core: 1, sched: kernel.SchedTimeSlice, neighbour: true, timed: true, parks: true},
	// A 1000-cycle engine quantum: far more quantum yields, some inside
	// probes, and finer interleaving of the pollers with the fabric.
	{name: "small engine quantum", gap: 3000, core: 1, quantum: 1000, parks: true},
	{name: "tenant", gap: 6000, core: 1, tenant: true},
	// The frontend with workers: each idle iteration is the syscalls,
	// then one pop per worker's response ring, then the poll.
	{name: "workers, 1 core, GETs", gap: 6000, core: 1, cores: 1, parks: true},
	{name: "workers, 1 core, SETs", gap: 6000, core: 1, cores: 1, setEvery: 1, parks: true},
	{name: "workers, 2 cores, GETs", gap: 6000, core: 2, cores: 2, parks: true},
	{name: "workers, 2 cores, SETs", gap: 6000, core: 2, cores: 2, setEvery: 1, parks: true},
	// Slow workers and a deep pipeline fill the request rings: a stalled
	// connection's failed push joins the probe, and the worker's dequeue
	// ends the park. The generator starts once the server serves, so
	// requests keep arriving while the rings are full; with SETs a
	// worker's group commit separates its dequeue from its responses, so
	// the dequeue alone ends some parks.
	{name: "workers, full request rings", gap: 2000, core: 1, cores: 1, clients: 64, compute: 200_000, setEvery: 1, genStart: 8_000_000, parks: true},
	// Worker 0 shares x86 core 0 with the frontend: queued behind it, its
	// parks end by themselves at the slice expiry, which may lie inside
	// an iteration.
	{name: "workers, frontend queued behind a worker", gap: 6000, core: 0, cores: 1, sched: kernel.SchedTimeSlice, timed: true, parks: true},
	// Long idle stretches between arrivals; the write lands on the clock
	// of a probe's close and the next probe's open.
	{name: "workers, write tied with two probes, lower ID", gap: 200_000, core: 2, cores: 2, tie: true, below: true, parks: true},
	{name: "workers, write tied with two probes, higher ID", gap: 200_000, core: 2, cores: 2, tie: true, parks: true},
}

// sockExtra is a thread a cell runs beside the server and the load
// generator: a task on the generator's machine, core 0, whose body gets
// a function returning the server's task (nil until it starts). first
// orders its thread before the server's at equal clocks.
type sockExtra struct {
	first bool
	body  func(t *kernel.Task, srv func() *kernel.Task) error
}

// sockCell is one finished run of a scenario.
type sockCell struct {
	dump          string
	eng           sim.EngineStats
	gen, frontend *kernel.Task
}

// runSockCell runs scenario sc with the pollers parking or, with spin,
// spinning with parks forbidden (sim.Engine.ForbidParks), and renders every
// number the two must share. extra, if not nil, runs beside them.
func runSockCell(t *testing.T, sc sockScenario, spin bool, extra *sockExtra) sockCell {
	t.Helper()
	cfgs := make([]machine.Config, 2)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: mem.Shared, OS: machine.StramashOS, Cores: max(2, sc.cores+1), Sched: sc.sched, SchedQuantum: 2000}
		if sc.tenant {
			cfgs[i].Tenants = []machine.TenantSpec{{Name: "t0", Budget: cap.Budget{Frames: 1 << 20, CacheFrames: 1 << 20},
				Grants: []string{"sock", "net", "vma", "futex", "spawn", "file"}}}
		}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sc.quantum > 0 {
		cl.Eng.Quantum = sc.quantum
	}
	if spin {
		cl.Eng.ForbidParks()
	}
	tp := TrafficParams{Requests: 60, Clients: 8, PayloadBytes: 64, Keys: 16, ZipfS: 1,
		InterArrival: sc.gap, SetEvery: 4, Seed: 3, Port: 6379, ServerCompute: 2000}
	if sc.cores > 0 {
		tp.SetEvery = sc.setEvery
		if sc.clients > 0 {
			tp.Clients = sc.clients
		}
		if sc.compute > 0 {
			tp.ServerCompute = sc.compute
		}
	}
	pp := ProdParams{Kind: KSSharded, Cores: sc.cores, Port: tp.Port, PayloadBytes: tp.PayloadBytes, Keys: tp.Keys,
		ExtraCompute: tp.ServerCompute, Expected: tp.Requests}
	var (
		tr   TrafficResult
		st   ProdStats
		cell sockCell
	)
	tenant := ""
	if sc.tenant {
		tenant = "t0"
	}
	specs := []machine.ClusterTask{
		{Mach: 1, TaskSpec: machine.TaskSpec{Name: "server", Origin: mem.NodeX86, Core: sc.core, KeepAlive: true, Tenant: tenant,
			Body: func(t *kernel.Task) (err error) {
				cell.frontend = t
				st, err = ServeProd(t, pp)
				return err
			}}},
		{Mach: 0, TaskSpec: machine.TaskSpec{Name: "loadgen", Origin: mem.NodeX86, Core: sc.core, KeepAlive: true, Start: max(2000, sc.genStart), Tenant: tenant,
			Body: func(t *kernel.Task) (err error) {
				cell.gen = t
				tr, err = GenerateTraffic(t, []net.Addr{{Mach: 1, Port: tp.Port}}, tp)
				return err
			}}},
	}
	if extra != nil {
		x := machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{Name: "extra", Origin: mem.NodeX86, Core: 0,
			Body: func(t *kernel.Task) error { return extra.body(t, func() *kernel.Task { return cell.frontend }) }}}
		if extra.first {
			specs = append([]machine.ClusterTask{x}, specs...)
		} else {
			specs = append(specs, x)
		}
	}
	if sc.neighbour {
		// Each computes on a poller's CPU while it serves (the server
		// serves from the Arm node) and, queued there, ends its parks at
		// each slice expiry.
		for _, n := range []struct {
			mach int
			node mem.NodeID
		}{{0, mem.NodeX86}, {1, mem.NodeArm}} {
			specs = append(specs, machine.ClusterTask{Mach: n.mach, TaskSpec: machine.TaskSpec{
				Name: fmt.Sprintf("neighbour%d", n.mach), Origin: n.node, Core: sc.core, Start: 200_000,
				Body: func(t *kernel.Task) error {
					for i := 0; i < 40; i++ {
						t.Compute(5000)
						t.Th.Advance(20_000)
					}
					return nil
				}}})
		}
	}
	res, err := cl.RunTasks(specs...)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic %+v\nserver %+v\n", tr, st)
	for _, r := range res {
		if r.Name != "extra" {
			fmt.Fprintf(&b, "task %s end=%d on %v/%d %+v\n", r.Name, r.End, r.Task.Node, r.Task.Core, r.Task.Stats)
		}
	}
	for mi, m := range cl.Machines {
		for n := mem.NodeID(0); n < 2; n++ {
			fmt.Fprintf(&b, "m%d %v cache %+v\n", mi, n, m.CacheStats(n))
			for c := 0; c < m.Sched.Cores(n); c++ {
				cpu := m.Sched.CPUOf(n, c)
				fmt.Fprintf(&b, "m%d %v core%d %+v dispatches=%d preemptions=%d busy=%d\n",
					mi, n, c, m.Plat.Caches.CoreStats(n, c), cpu.Dispatches, cpu.Preemptions, cpu.Busy)
			}
		}
	}
	cell.eng = cl.EngineStats()
	fmt.Fprintf(&b, "engine serial_segments=%d serial_cycles=%d max=%d\n", cell.eng.SerialSegments, cell.eng.SerialCycles, cl.Eng.MaxTime())
	cell.dump = b.String()
	return cell
}

// TestSockPollMatchesSpinning runs each scenario with the generator's and
// the single-task server's kernel.Task.PollSock spinning (parks forbidden)
// and parking, and requires the same clocks, latencies, digests,
// task, cache and CPU counters and engine segment accounting from both —
// and that both pollers parked where they may, with parks ending by
// themselves where the scenario has a bound, and nowhere else.
func TestSockPollMatchesSpinning(t *testing.T) {
	for _, sc := range sockScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var extra *sockExtra
			if sc.tie {
				at := sockTie(t, sc)
				extra = &sockExtra{first: sc.below, body: func(t *kernel.Task, server func() *kernel.Task) error {
					t.Th.AdvanceTo(at)
					t.Th.YieldPoint()
					srv := server()
					// The write's segment starts at the tie.
					pt := srv.Ctx.Plat.NewPort(mem.NodeX86, (srv.Core+1)%2, t.Th) // another core
					head, _ := srv.Ctx.Net.NIC.RX.Control()
					pt.Write64(head, pt.Read64(head))
					t.Th.YieldPoint()
					return nil
				}}
			}
			spin := runSockCell(t, sc, true, extra)
			genRan, _ := spin.gen.SockPolls()
			srvRan, _ := spin.frontend.SockPolls()
			if genRan == 0 || srvRan == 0 || spin.eng.Replayed != 0 {
				t.Fatalf("the spinning run's pollers ran %d and %d idle polls and replayed %d yield points: it is no spinning oracle", genRan, srvRan, spin.eng.Replayed)
			}
			got := runSockCell(t, sc, false, extra)
			if got.dump != spin.dump {
				t.Fatalf("PollSock diverges from the spinning loops\n--- parked\n%s--- spinning\n%s", got.dump, spin.dump)
			}
			genRan, genRep := got.gen.SockPolls()
			srvRan, srvRep := got.frontend.SockPolls()
			t.Logf("generator: %d idle polls run, %d replayed; server: %d run, %d replayed; %d timed parks",
				genRan, genRep, srvRan, srvRep, got.eng.TimedParks)
			switch {
			case sc.parks && (genRep == 0 || srvRep == 0):
				t.Fatal("a poller never parked: the scenario tests nothing")
			case !sc.parks && genRep+srvRep > 0:
				t.Fatal("a poller parked where it may not")
			case sc.timed && got.eng.TimedParks == 0:
				t.Fatal("no park ended by itself")
			}
		})
	}
}

// sockTie returns a clock at which two yield points of scenario sc's
// parked frontend coincide, a ring probe's close and the next one's open,
// several iterations into an idle stretch. A spinning run with a spy
// beside it finds them: at every cycle, after the frontend's yield points
// at that cycle, the spy reads the frontend's clock, which is then its
// next yield point's. Spinning, the frontend has a yield point at every
// clock it would have one parked.
func sockTie(t *testing.T, sc sockScenario) sim.Cycles {
	var clocks []sim.Cycles
	var lat sim.Cycles
	runSockCell(t, sc, true, &sockExtra{body: func(t *kernel.Task, server func() *kernel.Task) error {
		srv := server()
		lat = srv.Ctx.Plat.Cfg.Cache.Nodes[srv.Node].Lat.L1
		for srv.State != kernel.TaskExited && t.Th.Now() < 30_000_000 {
			t.Th.Advance(1)
			t.Th.YieldPoint()
			if n := len(clocks); n == 0 || clocks[n-1] != srv.Th.Now() {
				clocks = append(clocks, srv.Th.Now())
			}
		}
		return nil
	}})
	// A tie follows one probe (2 L1 hits after the yield point before)
	// and precedes another. In an idle stretch the ties repeat with the
	// iteration: the gaps between them have a period p.
	var ties []sim.Cycles
	for i := 1; i+1 < len(clocks); i++ {
		if clocks[i]-clocks[i-1] == 2*lat && clocks[i+1]-clocks[i] == 2*lat {
			ties = append(ties, clocks[i])
		}
	}
	for j := range ties {
		for p := 1; p <= 8 && j+5*p < len(ties); p++ {
			periodic := true
			for x := j; x < j+4*p; x++ {
				periodic = periodic && ties[x+1]-ties[x] == ties[x+p+1]-ties[x+p]
			}
			if periodic {
				return ties[j+3*p]
			}
		}
	}
	t.Fatalf("no idle stretch of ring probes among the frontend's %d ties", len(ties))
	return 0
}

// TestStalledServerDeadlocks is a server that accepts the generator's
// connection and then blocks forever without answering: once its last
// request has arrived, the generator's idle poll parks with nothing left
// to end the park, and the run ends in the engine's deadlock error naming
// it, within a host-time bound, where a spinning generator would poll
// forever.
func TestStalledServerDeadlocks(t *testing.T) {
	cl, err := machine.NewCluster([]machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS},
	}, net.DefaultFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	tp := TrafficParams{Requests: 8, Clients: 4, PayloadBytes: 64, Keys: 16, InterArrival: 5000, Seed: 3, Port: 6379}
	done := make(chan error, 1)
	go func() {
		_, err := cl.RunTasks(
			machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{Name: "stalled", Origin: mem.NodeX86, KeepAlive: true,
				Body: func(t *kernel.Task) error {
					lfd, err := t.SocketListen(tp.Port)
					if err != nil {
						return err
					}
					if _, err := t.SocketAccept(lfd); err != nil {
						return err
					}
					t.Sleep("stall")
					return nil
				}}},
			machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{Name: "loadgen", Origin: mem.NodeX86, KeepAlive: true, Start: 2000,
				Body: func(t *kernel.Task) error {
					_, err := GenerateTraffic(t, []net.Addr{{Mach: 1, Port: tp.Port}}, tp)
					return err
				}}},
		)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), "loadgen(sock-poll)") {
			t.Fatalf("RunTasks = %v, want the deadlock error naming loadgen(sock-poll)", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the stalled server's generator still runs after 20 s of host time")
	}
}
