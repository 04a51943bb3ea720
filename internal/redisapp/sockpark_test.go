package redisapp

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/trace"
)

// generateTrafficRef is GenerateTraffic as it ran before its idle polls
// parked (kernel.Task.PollSock): every idle iteration advances the poll
// interval and yields. Kept verbatim as the reference the generator must
// be indistinguishable from.
func generateTrafficRef(t *kernel.Task, servers []net.Addr, p TrafficParams) (TrafficResult, error) {
	var res TrafficResult
	if err := p.Validate(len(servers)); err != nil {
		return res, err
	}
	if p.InterArrival <= 0 {
		p.InterArrival = 2000
	}
	depth := p.Clients / len(servers)
	if depth < 1 {
		depth = 1
	}
	rng := sim.NewRNG(p.Seed | 1)
	cdf := zipfCDF(p.Keys, p.ZipfS)
	bp := BenchParams{PayloadBytes: p.PayloadBytes, Keys: p.Keys}
	// Pre-draw every request's key so the sequence is a function of the
	// seed alone, not of response interleaving.
	keyIdx := make([]int, p.Requests)
	for i := range keyIdx {
		keyIdx[i] = sampleZipf(rng, cdf)
	}
	// Key and value bytes are built once per key index, on first use.
	keys, vals := make([][]byte, p.Keys), make([][]byte, p.Keys)

	if err := t.ClaimNet(); err != nil {
		return res, err
	}

	fds := make([]int, len(servers))
	for s, a := range servers {
		fd, err := t.SocketConnect(a)
		if err != nil {
			return res, err
		}
		fds[s] = fd
	}

	t.BeginTimed()
	start := t.Th.Now()
	arrival := func(i int) sim.Cycles { return start + sim.Cycles(i+1)*p.InterArrival }

	queued := make([][]int, len(servers)) // arrived, not yet sent
	pend := make([][]pendReq, len(servers))
	rbufs := make([][]byte, len(servers)) // reassembly, received into and compacted
	var batch []byte
	dead := make([]bool, len(servers)) // server closed after serving its share
	lats := make([]sim.Cycles, 0, p.Requests)
	next := 0
	for res.Done < p.Requests {
		// Admit every request whose nominal arrival has passed.
		for next < p.Requests && t.Th.Now() >= arrival(next) {
			queued[next%len(servers)] = append(queued[next%len(servers)], next)
			next++
		}
		progress := false
		// Send pump: fill each server's pipeline up to depth.
		for s := range fds {
			if dead[s] {
				if len(queued[s]) > 0 {
					return res, fmt.Errorf("redisapp: server %d closed with %d requests still queued",
						s, len(queued[s]))
				}
				continue
			}
			// Pipelining: stage every sendable request for this server and
			// flush them in one socket write, so a burst of arrivals costs
			// one send-path traversal instead of one per request.
			batch = batch[:0]
			for len(queued[s]) > 0 && len(pend[s]) < depth {
				i := queued[s][0]
				queued[s] = queued[s][1:]
				k := keyIdx[i]
				if keys[k] == nil {
					keys[k], vals[k] = keyFor(bp, k), valFor(bp, k)
				}
				cmd, val := CmdGet, []byte(nil)
				if p.SetEvery > 0 && i%p.SetEvery == 0 {
					cmd, val = CmdSet, vals[k]
				}
				batch = appendRequest(batch, cmd, keys[k], val)
				pend[s] = append(pend[s], pendReq{idx: i, arrival: arrival(i)})
				res.Sent++
				progress = true
			}
			if len(batch) > 0 {
				if _, err := t.SendSock(fds[s], batch); err != nil {
					return res, err
				}
			}
		}
		// Receive pump: drain responses in FIFO order per connection.
		for s := range fds {
			if dead[s] {
				continue
			}
			n := len(rbufs[s])
			var err error
			rbufs[s], err = t.TryRecvSock(fds[s], rbufs[s], 4096)
			if err == io.EOF {
				// A server that has served its whole share closes its end; EOF
				// with requests still in flight, or mid-response, is a broken
				// server.
				if n := len(pend[s]) + len(queued[s]); n+len(rbufs[s]) > 0 {
					return res, fmt.Errorf("redisapp: server %d closed with %d requests outstanding and %d bytes of a partial response",
						s, n, len(rbufs[s]))
				}
				if err := t.CloseSock(fds[s]); err != nil {
					return res, err
				}
				dead[s] = true
				progress = true
				continue
			}
			if err != nil {
				return res, err
			}
			if len(rbufs[s]) == n {
				continue
			}
			progress = true
			off := 0
			for {
				status, payload, rest, ok, derr := decodeResponse(rbufs[s][off:])
				if derr != nil {
					return res, derr
				}
				if !ok {
					break
				}
				off = len(rbufs[s]) - len(rest)
				if len(pend[s]) == 0 {
					return res, fmt.Errorf("redisapp: server %d sent an unsolicited response", s)
				}
				pr := pend[s][0]
				pend[s] = pend[s][1:]
				lats = append(lats, t.Th.Now()-pr.arrival)
				if status == 0 {
					res.Misses++
				}
				res.Digest += respDigest(pr.idx, status, payload)
				res.Done++
			}
			rbufs[s] = rbufs[s][:copy(rbufs[s], rbufs[s][off:])]
		}
		if !progress {
			t.Th.Advance(500) // generator poll interval
			t.Th.YieldPoint()
		}
	}
	res.Elapsed = t.TimedCycles()
	res.P50 = percentile(lats, 0.50)
	res.P99 = percentile(lats, 0.99)
	for s, fd := range fds {
		if dead[s] {
			continue
		}
		if err := t.CloseSock(fd); err != nil {
			return res, err
		}
	}
	return res, nil
}

// prodFrontendRef is prodFrontend as it ran before its worker-less idle
// polls parked (kernel.Task.PollSock), kept verbatim as the reference.
func prodFrontendRef(t *kernel.Task, p ProdParams, ks Keyspace, rings prodRings, lfd int, st *ProdStats) error {
	t.BeginTimed()
	defer func() { st.ServeCycles = t.TimedCycles() }()

	var conns []*prodConn
	respBySeq := make(map[uint64][]byte)
	var free [][]byte // response buffers not in respBySeq
	take := func() (r []byte) {
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
		}
		return r
	}
	var vbuf, out []byte // the single-task server's value buffer; the flush buffer
	var nextSeq uint64

	for st.Served < p.Expected {
		progress := false
		fd, err := t.TrySocketAccept(lfd)
		if err != nil {
			return err
		}
		if fd >= 0 {
			conns = append(conns, &prodConn{fd: fd})
			progress = true
		}
		// Receive pump: decode every complete request per connection and
		// stage it (ring space permitting comes later).
		for ci := 0; ci < len(conns); ci++ {
			c := conns[ci]
			n := len(c.rbuf)
			c.rbuf, err = t.TryRecvSock(c.fd, c.rbuf, 4096)
			if err == io.EOF {
				if len(c.pend)+len(c.rbuf) > 0 {
					return fmt.Errorf("redisapp: client on fd %d closed with %d requests in flight and %d bytes of a partial request",
						c.fd, len(c.pend), len(c.rbuf))
				}
				if err := t.CloseSock(c.fd); err != nil {
					return err
				}
				conns = append(conns[:ci], conns[ci+1:]...)
				ci--
				progress = true
				continue
			}
			if err != nil {
				return err
			}
			if len(c.rbuf) == n {
				continue
			}
			progress = true
			off := 0
			for {
				cmd, key, val, rest, ok, derr := decodeRequest(c.rbuf[off:])
				if derr != nil {
					return derr
				}
				if !ok {
					break
				}
				off = len(c.rbuf) - len(rest)
				// Protocol parsing cost (RESP decode is byte-at-a-time work).
				t.Compute(int64(20 + (len(key)+len(val))/8))
				seq := nextSeq
				nextSeq++
				c.pend = append(c.pend, seq)
				if rings.workers == 0 {
					var miss int
					vbuf, miss, err = serve(t, p, ks, 0, vbuf[:0], cmd, key, val)
					if err != nil {
						return err
					}
					st.Misses += miss
					respBySeq[seq] = appendResponse(take(), respStatus(miss), vbuf)
					continue
				}
				c.staged = binary.LittleEndian.AppendUint32(c.staged, uint32(routeKey(t, key, rings.workers)))
				c.staged = appendRequest(binary.LittleEndian.AppendUint64(c.staged, seq), cmd, key, val)
			}
			c.rbuf = c.rbuf[:copy(c.rbuf, c.rbuf[off:])]
		}
		// Route pump: push each connection's staged requests head-of-line
		// into their workers' rings; a full ring stalls only that connection.
		for _, c := range conns {
			off := 0
			for off < len(c.staged) {
				_, klen, vlen, _ := requestHeader(c.staged[off+4+8:]) // checked when staged
				end := off + 4 + prodReqHdr + klen + vlen
				ok, err := prodRingPush(t, rings.req(int(binary.LittleEndian.Uint32(c.staged[off:]))), c.staged[off+4:end])
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				off = end
				progress = true
			}
			c.staged = c.staged[:copy(c.staged, c.staged[off:])]
		}
		// Response pump: drain every worker's response ring.
		for w := 0; w < rings.workers; w++ {
			for {
				seq, r, ok, err := prodRingPop(t, rings.resp(w), take())
				if err != nil {
					return err
				}
				if !ok {
					free = append(free, r)
					break
				}
				if r[0] == 0 {
					st.Misses++
				}
				respBySeq[seq] = r
				progress = true
			}
		}
		// Flush pump: emit each connection's ready responses in request
		// order, one socket write per connection per pass.
		for _, c := range conns {
			out = out[:0]
			n := 0
			for ; n < len(c.pend); n++ {
				r, ok := respBySeq[c.pend[n]]
				if !ok {
					break
				}
				out = append(out, r...)
				free = append(free, r[:0])
				delete(respBySeq, c.pend[n])
				st.Served++
			}
			c.pend = c.pend[:copy(c.pend, c.pend[n:])]
			if len(out) > 0 {
				if _, err := t.SendSock(c.fd, out); err != nil {
					return err
				}
				progress = true
			}
		}
		if !progress {
			t.Th.Advance(400) // poll interval
			t.Th.YieldPoint()
		}
	}
	for _, c := range conns {
		if err := t.CloseSock(c.fd); err != nil {
			return err
		}
	}
	return nil
}

// serveSingleRef is ServeProd's single-task server (no cores) over
// prodFrontendRef.
func serveSingleRef(t *kernel.Task, p ProdParams) (ProdStats, error) {
	var st ProdStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	if p.Port == 0 {
		p.Port = 6379
	}
	st.PerWorker = make([]ProdWorkerStats, 0)
	if err := t.ClaimNet(); err != nil {
		return st, err
	}
	lfd, err := t.SocketListen(p.Port)
	if err != nil {
		return st, err
	}
	ks, err := buildKeyspace(t, p.Kind, 0)
	if err != nil {
		return st, err
	}
	bp := BenchParams{PayloadBytes: p.PayloadBytes, Keys: p.Keys}
	for i := 0; i < p.Keys; i++ {
		if _, _, err := ks.Exec(t, 0, nil, CmdSet, keyFor(bp, i), valFor(bp, i)); err != nil {
			return st, err
		}
	}
	if err := t.Migrate(mem.NodeArm); err != nil {
		return st, err
	}
	if err := prodFrontendRef(t, p, ks, prodRings{}, lfd, &st); err != nil {
		return st, err
	}
	return st, t.CloseSock(lfd)
}

// sockScenario is one cell of a load generator (machine 0) against a
// single-task server (machine 1), whose idle polls park through
// kernel.Task.PollSock. Both pollers run on core (core 0 takes the NICs'
// doorbell IRQs) of two-core nodes.
type sockScenario struct {
	name string
	gap  sim.Cycles // the traffic's inter-arrival gap
	core int
	// sched is both machines' policy; neighbour queues a computing task on
	// each poller's CPU. tracer and tenant install a tracer and make both
	// pollers a tenant's tasks, which never park.
	sched          kernel.SchedPolicy
	quantum        sim.Cycles // replaces the engine quantum
	neighbour      bool
	tracer, tenant bool
	timed, parks   bool // some park ends by itself; the pollers park at all
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
	{name: "tracer", gap: 6000, core: 1, tracer: true},
	{name: "tenant", gap: 6000, core: 1, tenant: true},
}

// sockCell is one finished run of a scenario.
type sockCell struct {
	dump          string
	eng           sim.EngineStats
	gen, frontend *kernel.Task
}

// runSockCell runs scenario sc with the verbatim spinning loops (ref) or
// the parking ones, and renders every number the two must share.
func runSockCell(t *testing.T, sc sockScenario, ref bool) sockCell {
	t.Helper()
	cfgs := make([]machine.Config, 2)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: mem.Shared, OS: machine.StramashOS, Cores: 2, Sched: sc.sched, SchedQuantum: 2000}
		if sc.tracer {
			cfgs[i].Tracer = trace.NewBuffer()
		}
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
				if ref {
					st, err = serveSingleRef(t, pp)
				} else {
					st, err = ServeProd(t, pp)
				}
				return err
			}}},
		{Mach: 0, TaskSpec: machine.TaskSpec{Name: "loadgen", Origin: mem.NodeX86, Core: sc.core, KeepAlive: true, Start: 2000, Tenant: tenant,
			Body: func(t *kernel.Task) (err error) {
				cell.gen = t
				servers := []net.Addr{{Mach: 1, Port: tp.Port}}
				if ref {
					tr, err = generateTrafficRef(t, servers, tp)
				} else {
					tr, err = GenerateTraffic(t, servers, tp)
				}
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

// TestSockPollMatchesSpinning runs each scenario with the generator and the
// single-task server in their verbatim spinning loops and through
// kernel.Task.PollSock, and requires the same clocks, latencies, digests,
// task, cache and CPU counters and engine segment accounting from both —
// and that both pollers parked where they may, with parks ending by
// themselves where the scenario has a bound, and nowhere else.
func TestSockPollMatchesSpinning(t *testing.T) {
	for _, sc := range sockScenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := runSockCell(t, sc, true)
			got := runSockCell(t, sc, false)
			if got.dump != ref.dump {
				t.Fatalf("PollSock diverges from the spinning loops\n--- PollSock\n%s--- spinning\n%s", got.dump, ref.dump)
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
