package redisapp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
)

// TrafficParams configures the open-loop traffic generator: a population
// of virtual clients whose requests arrive at a fixed rate, with zipfian
// key popularity, fanned across the cluster's servers round-robin (the
// load balancer's policy) over one pipelined connection per server.
type TrafficParams struct {
	// Requests is the total request count across all servers.
	Requests int
	// Clients is the simulated client population; it caps the in-flight
	// pipeline (Clients/servers outstanding requests per connection), the
	// way a population of one-outstanding-request clients would.
	Clients int
	// PayloadBytes and Keys match the servers' pre-populated keyspace.
	PayloadBytes int
	Keys         int
	// ZipfS is the zipf exponent of key popularity (0 = uniform).
	ZipfS float64
	// InterArrival is the open-loop gap between request arrivals, in the
	// generator's cycles. Requests that cannot be sent at their nominal
	// arrival (pipeline full) queue, and their latency includes the wait.
	InterArrival sim.Cycles
	// SetEvery makes every k-th request a SET (0 = all GET).
	SetEvery int
	// Seed seeds the generator's deterministic RNG.
	Seed uint64
	// Port is the servers' listening port (0 = 6379).
	Port uint16
	// ServerCompute is extra per-request application work on each server,
	// in instructions (NetServerParams.ExtraCompute, fanned out by
	// ClusterBench). 0 keeps the pure store-lookup servers.
	ServerCompute int64
}

// Validate rejects traffic shapes that cannot run against servers
// listening machines: zero/negative counts, payloads the stream decoder
// would reject as corrupt, and the PR 9 fuzz-found livelock shape
// (requests < servers leaves a zero-share server that never polls its RX
// ring, hanging the generator's handshake in simulated time).
func (p TrafficParams) Validate(servers int) error {
	if servers < 1 {
		return &ParamError{Field: "servers", Value: servers, Reason: "need at least one server machine"}
	}
	if p.Requests <= 0 {
		return &ParamError{Field: "Requests", Value: p.Requests, Reason: "must be positive"}
	}
	if p.Requests < servers {
		return &ParamError{Field: "Requests", Value: p.Requests,
			Reason: fmt.Sprintf("%d servers would leave one with nothing to serve", servers)}
	}
	if p.Clients <= 0 {
		return &ParamError{Field: "Clients", Value: p.Clients, Reason: "must be positive"}
	}
	if p.PayloadBytes <= 0 {
		return &ParamError{Field: "PayloadBytes", Value: p.PayloadBytes, Reason: "must be positive"}
	}
	if p.PayloadBytes > maxNetVal {
		return &ParamError{Field: "PayloadBytes", Value: p.PayloadBytes,
			Reason: fmt.Sprintf("exceeds stream value bound %d", maxNetVal)}
	}
	if p.Keys <= 0 {
		return &ParamError{Field: "Keys", Value: p.Keys, Reason: "must be positive"}
	}
	if p.InterArrival < 0 {
		return &ParamError{Field: "InterArrival", Value: p.InterArrival, Reason: "must not be negative"}
	}
	if p.SetEvery < 0 {
		return &ParamError{Field: "SetEvery", Value: p.SetEvery, Reason: "must not be negative"}
	}
	return nil
}

// TrafficResult is the generator-side measurement.
type TrafficResult struct {
	Sent, Done int
	// Misses counts miss-status responses.
	Misses int
	// Digest is an order-independent FNV sum over (index, status, payload)
	// of every response — equal digests mean byte-equal served content.
	Digest uint64
	// P50 and P99 are client-observed latency percentiles, from nominal
	// arrival to response decode.
	P50, P99 sim.Cycles
	// Elapsed is the simulated span from first arrival to last response.
	Elapsed sim.Cycles
}

// pendReq is one in-flight request on a server connection.
type pendReq struct {
	idx     int
	arrival sim.Cycles
}

// zipfCDF precomputes the cumulative distribution of ranks 1..n with
// exponent s (s=0 degenerates to uniform).
func zipfCDF(n int, s float64) []float64 {
	if n <= 0 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		w := 1.0
		base := float64(r + 1)
		if s != 0 {
			w = 1.0
			for k := 0.0; k < s; k++ {
				w /= base
			}
			// Non-integer exponents: one more partial division keeps the
			// curve monotone without pulling in math.Pow.
			if frac := s - float64(int(s)); frac > 0 {
				w /= 1 + frac*(base-1)/base
			}
		}
		sum += w
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// sampleZipf draws one rank from the CDF.
func sampleZipf(rng *sim.RNG, cdf []float64) int {
	u := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// respDigest hashes one response, keyed by its request index so the sum
// over all responses is order-independent yet content-sensitive.
func respDigest(idx int, status byte, payload []byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for sh := 0; sh < 64; sh += 8 {
		mix(byte(uint64(idx) >> sh))
	}
	mix(status)
	for _, b := range payload {
		mix(b)
	}
	return h
}

// percentile returns the q-quantile of lats (nearest-rank).
func percentile(lats []sim.Cycles, q float64) sim.Cycles {
	if len(lats) == 0 {
		return 0
	}
	s := append([]sim.Cycles(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}

// GenerateTraffic runs the open-loop generator on task t against servers.
// Request i goes to server i mod len(servers); each connection is a strict
// FIFO pipeline, so responses match requests by order and latency is
// response-decode time minus nominal arrival time.
func GenerateTraffic(t *kernel.Task, servers []net.Addr, p TrafficParams) (TrafficResult, error) {
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
	rbufs := make([][]byte, len(servers))
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
			var batch []byte
			for len(queued[s]) > 0 && len(pend[s]) < depth {
				i := queued[s][0]
				queued[s] = queued[s][1:]
				cmd, val := CmdGet, []byte(nil)
				if p.SetEvery > 0 && i%p.SetEvery == 0 {
					cmd, val = CmdSet, valFor(bp, keyIdx[i])
				}
				batch = append(batch, encodeRequest(cmd, keyFor(bp, keyIdx[i]), val)...)
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
			data, err := t.TryRecvSock(fds[s], 4096)
			if err == io.EOF {
				// A server that has served its whole share closes its end; EOF
				// with requests still in flight is a broken server.
				if n := len(pend[s]) + len(queued[s]); n > 0 {
					return res, fmt.Errorf("redisapp: server %d closed with %d requests outstanding", s, n)
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
			if len(data) == 0 {
				continue
			}
			progress = true
			buf := append(rbufs[s], data...)
			for {
				status, payload, rest, ok, derr := decodeResponse(buf)
				if derr != nil {
					return res, derr
				}
				if !ok {
					break
				}
				buf = rest
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
			rbufs[s] = buf
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

// ClusterResult is one cluster benchmark measurement: machine 0 generated
// the traffic, machines 1..Servers served it.
type ClusterResult struct {
	Servers   int
	Traffic   TrafficResult
	PerServer []NetServerStats
}

// ClusterBench runs the multi-machine benchmark on cl: a load-balancer /
// generator task on machine 0 fans open-loop traffic into one ServeNet
// task per remaining machine, over sockets, NIC rings and the switch.
func ClusterBench(cl *machine.Cluster, p TrafficParams) (ClusterResult, error) {
	nS := len(cl.Machines) - 1
	if err := p.Validate(nS); err != nil {
		return ClusterResult{}, err
	}
	if p.Port == 0 {
		p.Port = 6379
	}
	expected := make([]int, nS)
	for i := 0; i < p.Requests; i++ {
		expected[i%nS]++
	}
	res := ClusterResult{Servers: nS, PerServer: make([]NetServerStats, nS)}
	specs := make([]machine.ClusterTask, 0, nS+1)
	for s := 0; s < nS; s++ {
		s := s
		specs = append(specs, machine.ClusterTask{Mach: s + 1, TaskSpec: machine.TaskSpec{
			Name: fmt.Sprintf("redis-net-%d", s), Origin: mem.NodeX86, KeepAlive: true,
			Body: func(t *kernel.Task) error {
				st, err := ServeNet(t, NetServerParams{
					Port: p.Port, Expected: expected[s],
					PayloadBytes: p.PayloadBytes, Keys: p.Keys, Migrate: true,
					ExtraCompute: p.ServerCompute,
				})
				res.PerServer[s] = st
				return err
			},
		}})
	}
	servers := make([]net.Addr, nS)
	for s := range servers {
		servers[s] = net.Addr{Mach: s + 1, Port: p.Port}
	}
	// The generator starts late enough that every server is listening
	// (listen is each server's first syscall; SYNs sent to a dead port
	// would be dropped).
	specs = append(specs, machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{
		Name: "loadgen", Origin: mem.NodeX86, KeepAlive: true, Start: 2000,
		Body: func(t *kernel.Task) error {
			tr, err := GenerateTraffic(t, servers, p)
			res.Traffic = tr
			return err
		},
	}})
	if _, err := cl.RunTasks(specs...); err != nil {
		return res, err
	}
	return res, nil
}
