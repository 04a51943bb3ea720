package redisapp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// This file is the socket server: a frontend task owns the machine's
// network stack and clone()s one worker per core on each node.
// The frontend decodes pipelined RESP-lite requests, routes each by key
// hash to its owning worker over a per-worker request ring in simulated
// memory, reassembles responses into per-connection order, and flushes
// them batched. Workers execute against the chosen keyspace regime
// (sharded or locked), append mutations to a shared AOF through the VFS
// with group-commit fsync, and report per-worker counters. After the run
// the server replays the AOF into a fresh store and digests both — the
// replay-equals-live check is the persistence story's proof obligation.
// With no cores it is the single-task server: no workers, rings or AOF;
// the frontend runs every request itself against one plain store, from
// the other ISA (the paper's time_event scenario, §9.2.8).

// Worker ring geometry: slot 0 of each ring holds head (producer index)
// at +0 and tail (consumer index) at +64. Request slots carry
// seq(8)|cmd(1)|klen(4)|vlen(4)|key|val; response slots carry
// seq(8)|status(1)|plen(4)|payload. The seq is frontend-internal — the
// wire protocol stays plain RESP-lite, FIFO per connection.
const (
	prodRingCtl = 128
	prodSlots   = 16
	prodSlotCap = 8768 // fits seq + any frame the header checks accept
	prodReqHdr  = 8 + reqHdr
	prodRespHdr = 8 + respHdr
)

// KeyspaceKind selects the store regime behind the worker pool.
type KeyspaceKind int

const (
	// KSSharded hash-partitions the keyspace, one private store per
	// worker: no locks, no cross-worker write sharing.
	KSSharded KeyspaceKind = iota
	// KSLocked shares one store between all workers under futex-backed
	// bucket-stripe locks and a shared-offset arena.
	KSLocked
)

func (k KeyspaceKind) String() string {
	if k == KSLocked {
		return "locked"
	}
	return "sharded"
}

// ProdParams configures one socket server process.
type ProdParams struct {
	// Port is the listening port (0 = 6379).
	Port uint16
	// Expected is the number of requests to serve before shutting down.
	Expected int
	// PayloadBytes and Keys size the pre-populated keyspace, matching the
	// traffic generator's deterministic key/value functions.
	PayloadBytes int
	Keys         int
	// Kind picks the keyspace regime (unused with no workers).
	Kind KeyspaceKind
	// Cores is the per-node core count; the server clones one worker per
	// core per node (2*Cores workers). 0 runs the single-task server.
	Cores int
	// ExtraCompute is added application work per request, in instructions
	// (0 = none). It models request bodies heavier than pure store lookups
	// and gives cluster benchmarks a per-machine compute component.
	ExtraCompute int64
}

// Validate rejects a negative core count; the traffic-derived fields are
// checked by TrafficParams.Validate.
func (p ProdParams) Validate() error {
	if p.Cores < 0 {
		return &ParamError{Field: "Cores", Value: p.Cores, Reason: "must not be negative"}
	}
	return nil
}

// ProdWorkerStats is one worker's counters, for the -json export. The AOF
// counters cover only the worker's own log: a worker that serves GETs
// only appends nothing and fsyncs no batch, and the populate records are
// appended by the frontend's log, which belongs to no worker. A
// read-only run therefore reports zero fsync batches on every worker
// while the replayed log (ProdStats.AOFRecords) holds the populate.
type ProdWorkerStats struct {
	Ops          int64
	Misses       int64
	FutexWaits   int64
	FsyncBatches int64
	AOFRecords   int64
	AOFBytes     int64
}

// ProdStats reports one production server run.
type ProdStats struct {
	Served  int
	Misses  int
	Workers int
	// ServeCycles spans the frontend's serve loop up to closing the client
	// connections (populate, clone and recovery excluded).
	ServeCycles sim.Cycles
	PerWorker   []ProdWorkerStats
	// LiveDigest is the keyspace digest after the run; ReplayDigest is
	// the digest of a fresh store built by replaying the AOF. Equal
	// digests mean the log captured every surviving mutation. These and
	// the AOF counters stay zero in the single-task server.
	LiveDigest   uint64
	ReplayDigest uint64
	// AOFRecords counts records applied by the replay; AOFFileBytes is
	// the log's final size.
	AOFRecords   int
	AOFFileBytes int64
}

// prodConn is one client connection's frontend state, its buffers reused:
// rbuf is received into and compacted after decoding; staged queues the
// requests awaiting ring space as dest(4)|seq(8)|request, the worker and
// its ring slot; pend holds the seqs awaiting a response, in order.
type prodConn struct {
	fd     int
	rbuf   []byte
	staged []byte
	pend   []uint64
}

// prodRings lays out the per-worker rings and stop flags in one mapping.
type prodRings struct {
	base    pgtable.VirtAddr
	workers int
}

func (r prodRings) ringBytes() int { return prodRingCtl + prodSlots*prodSlotCap }
func (r prodRings) req(w int) pgtable.VirtAddr {
	return r.base + pgtable.VirtAddr(w*r.ringBytes())
}
func (r prodRings) resp(w int) pgtable.VirtAddr {
	return r.base + pgtable.VirtAddr((r.workers+w)*r.ringBytes())
}
func (r prodRings) stop(w int) pgtable.VirtAddr {
	return r.base + pgtable.VirtAddr(2*r.workers*r.ringBytes()+w*64)
}
func (r prodRings) size() uint64 { return uint64(2*r.workers*r.ringBytes() + r.workers*64) }

// ServeProd runs the socket server on task t: listen, build and populate
// the keyspace, then serve Expected pipelined requests and close. With
// workers it logs the populate phase to the AOF, clones the workers
// before serving, and afterwards joins, digests, and verifies recovery.
// With no cores it migrates to the other ISA after populating and serves
// every request from the frontend.
func ServeProd(t *kernel.Task, p ProdParams) (ProdStats, error) {
	var st ProdStats
	if err := p.Validate(); err != nil {
		return st, err
	}
	if p.Port == 0 {
		p.Port = 6379
	}
	workers := 2 * p.Cores
	st.Workers = workers
	st.PerWorker = make([]ProdWorkerStats, workers)

	// The frontend is the machine stack's only socket user; workers talk
	// to it through simulated-memory rings only.
	if err := t.ClaimNet(); err != nil {
		return st, err
	}
	lfd, err := t.SocketListen(p.Port)
	if err != nil {
		return st, err
	}

	ks, err := buildKeyspace(t, p.Kind, workers)
	if err != nil {
		return st, err
	}
	bp := BenchParams{PayloadBytes: p.PayloadBytes, Keys: p.Keys}
	if workers == 0 {
		// The single-task server keeps no log, populates its one store
		// directly and serves from the other ISA.
		for i := 0; i < p.Keys; i++ {
			if _, _, err := ks.Exec(t, 0, nil, CmdSet, keyFor(bp, i), valFor(bp, i)); err != nil {
				return st, err
			}
		}
		if err := t.Migrate(mem.NodeArm); err != nil {
			return st, err
		}
		if err := prodFrontend(t, p, ks, prodRings{}, lfd, &st); err != nil {
			return st, err
		}
		return st, t.CloseSock(lfd)
	}
	// Populate through the same Exec + AOF path live mutations use, so
	// the log replays into the complete keyspace, not just the deltas.
	front, err := openAOF(t)
	if err != nil {
		return st, err
	}
	for i := 0; i < p.Keys; i++ {
		key, val := keyFor(bp, i), valFor(bp, i)
		w := routeKey(t, key, workers)
		if _, _, err := ks.Exec(t, w, nil, CmdSet, key, val); err != nil {
			return st, err
		}
		if err := front.Append(t, CmdSet, key, val); err != nil {
			return st, err
		}
	}
	if err := front.Close(t); err != nil {
		return st, err
	}

	rings := prodRings{workers: workers}
	rings.base, err = t.Proc.MmapAligned(rings.size(), 2<<20, kernel.VMARead|kernel.VMAWrite, "redis.rings")
	if err != nil {
		return st, err
	}
	for w := 0; w < workers; w++ {
		for _, a := range []pgtable.VirtAddr{rings.req(w), rings.req(w) + 64, rings.resp(w), rings.resp(w) + 64, rings.stop(w)} {
			if err := t.Store(a, 8, 0); err != nil {
				return st, err
			}
		}
	}

	kids := make([]*kernel.ClonedTask, workers)
	for w := 0; w < workers; w++ {
		w := w
		c, err := t.Clone(fmt.Sprintf("redis-worker%d", w), (w/2)%p.Cores, func(wt *kernel.Task) error {
			return prodWorker(wt, p, ks, w, rings, &st.PerWorker[w])
		})
		if err != nil {
			return st, err
		}
		kids[w] = c
	}

	serveErr := prodFrontend(t, p, ks, rings, lfd, &st)

	// Shut the workers down whether or not the serve loop succeeded, so a
	// serve error surfaces instead of a join deadlock.
	for w := 0; w < workers; w++ {
		t.Th.YieldPoint()
		err := t.Store(rings.stop(w), 8, 1)
		t.Th.YieldPoint()
		if err != nil {
			return st, err
		}
	}
	for _, c := range kids {
		if err := c.Join(t); err != nil && serveErr == nil {
			serveErr = err
		}
	}
	if serveErr != nil {
		return st, serveErr
	}

	st.LiveDigest, err = ks.Digest(t)
	if err != nil {
		return st, err
	}

	// Recovery: replay the AOF into a fresh store and digest it. The
	// digests are layout-independent, so replay-equals-live holds across
	// regimes and bucket counts.
	rarena, err := NewArena(t, 16<<20, "redis.recover")
	if err != nil {
		return st, err
	}
	rstore, err := NewStore(t, rarena, 256)
	if err != nil {
		return st, err
	}
	st.AOFRecords, err = RecoverAOF(t, aofPath, rstore)
	if err != nil {
		return st, err
	}
	st.ReplayDigest, err = rstore.Digest(t)
	if err != nil {
		return st, err
	}
	rfd, err := t.OpenFile(aofPath, vfs.ORead)
	if err != nil {
		return st, err
	}
	if st.AOFFileBytes, err = t.FileSize(rfd); err != nil {
		return st, err
	}
	if err := t.CloseFile(rfd); err != nil {
		return st, err
	}
	return st, t.CloseSock(lfd)
}

// prodPrefault is the per-worker arena warmup: the server pre-touches the
// heap it expects to use before serving, so demand-zero faults are paid at
// boot, not inside request latencies. The same byte budget is warmed in
// both regimes — workers shards of it in the sharded keyspace, one run of
// it in the locked keyspace's shared arena.
const prodPrefault = 256 << 10

// buildKeyspace constructs the regime's store(s) and warms their arenas.
// With no workers it is one plain store, not warmed.
func buildKeyspace(t *kernel.Task, kind KeyspaceKind, workers int) (Keyspace, error) {
	if workers == 0 {
		arena, err := NewArena(t, 48<<20, "redis.heap")
		if err != nil {
			return nil, err
		}
		store, err := NewStore(t, arena, 256)
		if err != nil {
			return nil, err
		}
		return &StoreSharded{shards: []*Store{store}}, nil
	}
	if kind == KSLocked {
		arena, err := NewSharedArena(t, 48<<20, "redis.heap")
		if err != nil {
			return nil, err
		}
		if err := arena.Prefault(t, uint64(workers)*prodPrefault); err != nil {
			return nil, err
		}
		store, err := NewStore(t, arena, 256)
		if err != nil {
			return nil, err
		}
		return NewStoreLocked(t, store, 8)
	}
	ks, err := NewStoreSharded(t, workers, 8<<20, 64)
	if err != nil {
		return nil, err
	}
	for _, s := range ks.shards {
		if err := s.arena.Prefault(t, prodPrefault); err != nil {
			return nil, err
		}
	}
	return ks, nil
}

// prodFrontend is the timed serve loop: accept, decode pipelined
// requests, route to worker rings, reassemble responses per connection in
// request order, and flush them batched. With no workers it runs each
// request itself as it decodes it, and the flush sends the responses.
// Responses are built in buffers from a free list, and one flush buffer
// serves every connection: SendSock returns only once the fabric has
// copied every byte out of it. An iteration that does nothing ends in
// one poll, kernel.Task.PollSock, which parks the loop.
func prodFrontend(t *kernel.Task, p ProdParams, ks Keyspace, rings prodRings, lfd int, st *ProdStats) error {
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
	var probes ringProbes

	for st.Served < p.Expected {
		t.BeginSockProbe()
		probes.begin()
		progress := false
		// A park that passed yield points of this iteration passed its
		// syscalls, which found nothing to do.
		syscalls := probes.passed == 0
		if syscalls {
			fd, err := t.TrySocketAccept(lfd)
			if err != nil {
				return err
			}
			if fd >= 0 {
				conns = append(conns, &prodConn{fd: fd})
				progress = true
			}
		}
		// Receive pump: decode every complete request per connection and
		// stage it (ring space permitting comes later).
		for ci := 0; syscalls && ci < len(conns); ci++ {
			c := conns[ci]
			n := len(c.rbuf)
			var err error
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
				ok, err := prodRingPush(t, rings.req(int(binary.LittleEndian.Uint32(c.staged[off:]))), c.staged[off+4:end], &probes)
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
				seq, r, ok, err := prodRingPop(t, rings.resp(w), take(), &probes)
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
		probes.passed = 0
		if !progress {
			probes.passed = t.PollSock(400, math.MaxInt64, probes.words, probes.vals) // the poll interval
		}
	}
	for _, c := range conns {
		if err := t.CloseSock(c.fd); err != nil {
			return err
		}
	}
	return nil
}

// ringProbes are the frontend's ring probes in one iteration, for
// kernel.Task.PollSock: the head and tail words each loaded and their
// values, and how many of the iteration's yield points a park passed
// (PollSock's result).
type ringProbes struct {
	words  []pgtable.VirtAddr
	vals   []uint64
	n      int // the probes the iteration has begun
	passed int
}

// begin starts an iteration's probes.
func (rp *ringProbes) begin() {
	rp.words, rp.vals, rp.n = rp.words[:0], rp.vals[:0], 0
}

// open begins the iteration's next probe with its opening yield point. It
// reports false for a probe the park passed, which found nothing to do;
// a probe whose opening yield point alone the park passed starts at its
// loads.
func (rp *ringProbes) open(t *kernel.Task) bool {
	rp.n++
	switch {
	case 2*rp.n <= rp.passed:
		return false
	case 2*rp.n-1 != rp.passed:
		t.Th.YieldPoint()
	}
	return true
}

// loaded records the probe of ring that loaded head and tail.
func (rp *ringProbes) loaded(ring pgtable.VirtAddr, head, tail uint64) {
	rp.words = append(rp.words, ring, ring+64)
	rp.vals = append(rp.vals, head, tail)
}

// prodRingPush enqueues one slot (seq|request) if the ring has space. Ring
// control words synchronize tasks through plain simulated memory, so every
// operation is bracketed by yield points: the engine orders cross-thread
// visibility at segment granularity, so a ring store buried mid-segment
// between parking syscalls would become visible at whatever simulated time
// the segment happened to end, not at the store's own. The push is one of
// rp's probes: one the park passed found the ring full.
func prodRingPush(t *kernel.Task, ring pgtable.VirtAddr, slot []byte, rp *ringProbes) (ok bool, err error) {
	if !rp.open(t) {
		return false, nil
	}
	defer t.Th.YieldPoint()
	head, err := t.Load(ring, 8)
	if err != nil {
		return false, err
	}
	tail, err := t.Load(ring+64, 8)
	if err != nil {
		return false, err
	}
	rp.loaded(ring, head, tail)
	if head-tail >= prodSlots {
		return false, nil
	}
	if err := t.WriteBytes(ring+prodRingCtl+pgtable.VirtAddr(int(head%prodSlots)*prodSlotCap), slot); err != nil {
		return false, err
	}
	if err := t.Store(ring, 8, head+1); err != nil {
		return false, err
	}
	return true, nil
}

// prodRingPop dequeues one response if available (yield discipline and
// rp as in prodRingPush: one the park passed found the ring empty) and
// returns its seq and its response frame, built in dst[:0]; with nothing
// to dequeue it returns dst.
func prodRingPop(t *kernel.Task, ring pgtable.VirtAddr, dst []byte, rp *ringProbes) (seq uint64, resp []byte, ok bool, err error) {
	if !rp.open(t) {
		return 0, dst, false, nil
	}
	defer t.Th.YieldPoint()
	head, err := t.Load(ring, 8)
	if err != nil {
		return 0, dst, false, err
	}
	tail, err := t.Load(ring+64, 8)
	if err != nil {
		return 0, dst, false, err
	}
	rp.loaded(ring, head, tail)
	if head == tail {
		return 0, dst, false, nil
	}
	slot := ring + prodRingCtl + pgtable.VirtAddr(int(tail%prodSlots)*prodSlotCap)
	resp, err = t.ReadAppend(dst[:0], slot, prodRespHdr)
	if err != nil {
		return 0, resp, false, err
	}
	seq = binary.LittleEndian.Uint64(resp)
	_, plen, err := responseHeader(resp[8:])
	if err != nil {
		return 0, resp, false, err
	}
	// The frame is the slot without its seq: shift the header over it.
	resp = resp[:copy(resp, resp[8:])]
	if plen > 0 {
		if resp, err = t.ReadAppend(resp, slot+prodRespHdr, plen); err != nil {
			return 0, resp, false, err
		}
	}
	if err := t.Store(ring+64, 8, tail+1); err != nil {
		return 0, resp, false, err
	}
	return seq, resp, true, nil
}

// prodRingConsume dequeues the request at tail into dst[:0] and returns
// its slot, seq|request (yield discipline as in prodRingPush: the slot
// reads and the tail publication are one ordering unit).
func prodRingConsume(t *kernel.Task, reqRing pgtable.VirtAddr, tail uint64, dst []byte) ([]byte, error) {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	at := reqRing + prodRingCtl + pgtable.VirtAddr(int(tail%prodSlots)*prodSlotCap)
	slot, err := t.ReadAppend(dst[:0], at, prodReqHdr)
	if err != nil {
		return slot, err
	}
	_, klen, vlen, err := requestHeader(slot[8:])
	if err != nil {
		return slot, err
	}
	if slot, err = t.ReadAppend(slot, at+prodReqHdr, klen); err != nil {
		return slot, err
	}
	if vlen > 0 {
		if slot, err = t.ReadAppend(slot, at+prodReqHdr+pgtable.VirtAddr(klen), vlen); err != nil {
			return slot, err
		}
	}
	return slot, t.Store(reqRing+64, 8, tail+1)
}

// The worker wait loops (kernel.Task.SpinWait) poll a ring's head and tail
// plus the stop flag as one ordering unit: the loads are cross-task shared
// state, so even a read-only probe starts at a yield point — a probe
// running ahead of a lower-clocked producer's pending publication would
// observe the ring before that publication's simulated time. A worker
// waits for a request while its ring is empty, and for response space
// while that ring is full, until the stop flag is set.

// prodReqIdle reports an empty request ring and no stop.
func prodReqIdle(w []uint64) bool { return w[0] == w[1] && w[2] == 0 }

// prodRespIdle reports a full response ring and no stop.
func prodRespIdle(w []uint64) bool { return w[0]-w[1] >= prodSlots && w[2] == 0 }

// prodRingRespond enqueues one response, encoded in dst[:0], which it
// returns (yield discipline as in prodRingPush). The caller has already
// established that the ring has space; the worker is the ring's only
// producer, so the space cannot vanish between the check and this section.
func prodRingRespond(t *kernel.Task, respRing pgtable.VirtAddr, seq uint64, status byte, payload, dst []byte) ([]byte, error) {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	rh, err := t.Load(respRing, 8)
	if err != nil {
		return dst, err
	}
	rbuf := appendResponse(binary.LittleEndian.AppendUint64(dst[:0], seq), status, payload)
	rslot := respRing + prodRingCtl + pgtable.VirtAddr(int(rh%prodSlots)*prodSlotCap)
	if err := t.WriteBytes(rslot, rbuf); err != nil {
		return rbuf, err
	}
	return rbuf, t.Store(respRing, 8, rh+1)
}

// serve executes one request as worker w (0 in the single-task server),
// appending its payload to dst, then the request's extra application work.
func serve(t *kernel.Task, p ProdParams, ks Keyspace, w int, dst []byte, cmd Command, key, val []byte) ([]byte, int, error) {
	payload, miss, err := ks.Exec(t, w, dst, cmd, key, val)
	if err == nil && p.ExtraCompute > 0 {
		t.Compute(p.ExtraCompute)
	}
	return payload, miss, err
}

// respStatus is a response's status byte: 1 = ok, 0 = miss.
func respStatus(miss int) byte {
	if miss > 0 {
		return 0
	}
	return 1
}

// prodWorker is one cloned worker: poll the request ring, execute against
// the keyspace, log mutations with group commit, and push the response.
func prodWorker(t *kernel.Task, p ProdParams, ks Keyspace, w int, rings prodRings, out *ProdWorkerStats) error {
	// Odd workers serve from the other ISA; cores interleave so each
	// node's cores 0..Cores-1 all carry one worker.
	if w%2 == 1 {
		if err := t.Migrate(mem.NodeArm); err != nil {
			return err
		}
	}
	log, err := openAOF(t)
	if err != nil {
		return err
	}
	// Record the counters on every way out, after the final Close has
	// flushed the last batch.
	defer func() {
		out.FsyncBatches = log.Batches
		out.AOFRecords = log.Records
		out.AOFBytes = log.Bytes
		out.FutexWaits = t.Stats.FutexWaits
	}()
	reqRing, respRing := rings.req(w), rings.resp(w)
	// Each wait polls a ring's control words plus the stop flag.
	reqWords := [3]pgtable.VirtAddr{reqRing, reqRing + 64, rings.stop(w)}
	respWords := [3]pgtable.VirtAddr{respRing, respRing + 64, rings.stop(w)}
	var words [3]uint64            // head, tail, stop
	var slot, payload, rbuf []byte // this worker's request, value and response buffers
	for {
		if err := t.SpinWait(reqWords[:], words[:], 300, prodReqIdle); err != nil {
			return err
		}
		tail := words[1]
		if words[0] == tail {
			break // stopped
		}
		var err error
		if slot, err = prodRingConsume(t, reqRing, tail, slot); err != nil {
			return err
		}
		seq := binary.LittleEndian.Uint64(slot)
		cmd, key, val, _, _, _ := decodeRequest(slot[8:]) // checked by prodRingConsume
		var miss int
		if payload, miss, err = serve(t, p, ks, w, payload[:0], cmd, key, val); err != nil {
			return err
		}
		if mutatesStore(cmd, miss) {
			if err := log.Append(t, cmd, key, val); err != nil {
				return err
			}
		}
		// Push the response, waiting (in simulated time) for ring space;
		// the frontend always drains, so this cannot deadlock — unless the
		// frontend died mid-run, which the stop flag breaks us out of.
		if err := t.SpinWait(respWords[:], words[:], 200, prodRespIdle); err != nil {
			return err
		}
		if words[0]-words[1] >= prodSlots {
			return log.Close(t) // stopped
		}
		if rbuf, err = prodRingRespond(t, respRing, seq, respStatus(miss), payload, rbuf); err != nil {
			return err
		}
		out.Ops++
		out.Misses += int64(miss)
	}
	return log.Close(t)
}

// ClusterResult is one cluster benchmark measurement: machine 0 generated
// the traffic, machines 1..Servers ran ServeProd.
type ClusterResult struct {
	Servers   int
	Traffic   TrafficResult
	PerServer []ProdStats
}

// ClusterBench runs the cluster benchmark against single-task servers.
func ClusterBench(cl *machine.Cluster, p TrafficParams) (ClusterResult, error) {
	return ClusterProdBench(cl, p, ProdParams{})
}

// ClusterProdBench runs the multi-machine benchmark on cl: a load-balancer /
// generator task on machine 0 fans open-loop traffic into one ServeProd
// task per remaining machine, over sockets, NIC rings and the switch. pp
// sets the servers' keyspace regime and cores; the traffic sets the rest.
func ClusterProdBench(cl *machine.Cluster, p TrafficParams, pp ProdParams) (ClusterResult, error) {
	nS := len(cl.Machines) - 1
	if err := p.Validate(nS); err != nil {
		return ClusterResult{}, err
	}
	if err := pp.Validate(); err != nil {
		return ClusterResult{}, err
	}
	if p.Port == 0 {
		p.Port = 6379
	}
	pp.Port, pp.PayloadBytes, pp.Keys, pp.ExtraCompute = p.Port, p.PayloadBytes, p.Keys, p.ServerCompute
	expected := make([]int, nS)
	for i := 0; i < p.Requests; i++ {
		expected[i%nS]++
	}
	res := ClusterResult{Servers: nS, PerServer: make([]ProdStats, nS)}
	specs := make([]machine.ClusterTask, 0, nS+1)
	for s := 0; s < nS; s++ {
		sp := pp
		sp.Expected = expected[s]
		specs = append(specs, machine.ClusterTask{Mach: s + 1, TaskSpec: machine.TaskSpec{
			Name: fmt.Sprintf("redis-prod-%d", s), Origin: mem.NodeX86, KeepAlive: true,
			Body: func(t *kernel.Task) error {
				st, err := ServeProd(t, sp)
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
