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
// single-task server (machine 1), whose idle polls park through
// kernel.Task.PollSock. Both pollers run on core (core 0 takes the NICs'
// doorbell IRQs) of two-core nodes.
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
}

// sockCell is one finished run of a scenario.
type sockCell struct {
	dump          string
	eng           sim.EngineStats
	gen, frontend *kernel.Task
}

// runSockCell runs scenario sc with the pollers parking or, with spin,
// spinning with parks forbidden (sim.Engine.ForbidParks), and renders every
// number the two must share.
func runSockCell(t *testing.T, sc sockScenario, spin bool) sockCell {
	t.Helper()
	cfgs := make([]machine.Config, 2)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: mem.Shared, OS: machine.StramashOS, Cores: 2, Sched: sc.sched, SchedQuantum: 2000}
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
	pp := ProdParams{Kind: KSSharded, Port: tp.Port, PayloadBytes: tp.PayloadBytes, Keys: tp.Keys,
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
		{Mach: 0, TaskSpec: machine.TaskSpec{Name: "loadgen", Origin: mem.NodeX86, Core: sc.core, KeepAlive: true, Start: 2000, Tenant: tenant,
			Body: func(t *kernel.Task) (err error) {
				cell.gen = t
				tr, err = GenerateTraffic(t, []net.Addr{{Mach: 1, Port: tp.Port}}, tp)
				return err
			}}},
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
		fmt.Fprintf(&b, "task %s end=%d on %v/%d %+v\n", r.Name, r.End, r.Task.Node, r.Task.Core, r.Task.Stats)
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
			spin := runSockCell(t, sc, true)
			genRan, _ := spin.gen.SockPolls()
			srvRan, _ := spin.frontend.SockPolls()
			if genRan == 0 || srvRan == 0 || spin.eng.Replayed != 0 {
				t.Fatalf("the spinning run's pollers ran %d and %d idle polls and replayed %d yield points: it is no spinning oracle", genRan, srvRan, spin.eng.Replayed)
			}
			got := runSockCell(t, sc, false)
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
