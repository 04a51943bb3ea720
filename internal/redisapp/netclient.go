package redisapp

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/kernel"
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
	// in instructions (ProdParams.ExtraCompute, fanned out by
	// ClusterProdBench). 0 keeps the pure store-lookup servers.
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
	return fnvFold(fnvFold(fnvFoldU64(fnvBasis, uint64(idx)), []byte{status}), payload)
}

// percentile returns the q-quantile of lats (nearest-rank), sorting lats
// in place.
func percentile(lats []sim.Cycles, q float64) sim.Cycles {
	if len(lats) == 0 {
		return 0
	}
	slices.Sort(lats)
	return lats[int(q*float64(len(lats)-1)+0.5)]
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
	// actAt is, after an iteration that found nothing to do, the first
	// clock at which the loop top admits a request the loop acts on: one
	// for a server whose pipeline has room (its queue is then empty) or
	// that has closed (an error). An arrival for a full pipeline only
	// queues, which the first loop top after it does as well.
	actAt := func() sim.Cycles {
		for i := next; i < p.Requests && i < next+len(servers); i++ {
			if s := i % len(servers); dead[s] || len(pend[s]) < depth {
				return arrival(i)
			}
		}
		return math.MaxInt64
	}
	for res.Done < p.Requests {
		t.BeginSockProbe()
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
			t.PollSock(500, actAt(), nil, nil) // the generator's poll interval
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
