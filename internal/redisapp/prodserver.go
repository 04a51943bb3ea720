package redisapp

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// This file is the production-shaped server: a frontend task owns the
// machine's network stack and clone()s one worker per core on each node.
// The frontend decodes pipelined RESP-lite requests, routes each by key
// hash to its owning worker over a per-worker request ring in simulated
// memory, reassembles responses into per-connection order, and flushes
// them batched. Workers execute against the chosen keyspace regime
// (sharded or locked), append mutations to a shared AOF through the VFS
// with group-commit fsync, and report per-worker counters. After the run
// the server replays the AOF into a fresh store and digests both — the
// replay-equals-live check is the persistence story's proof obligation.

// Worker ring geometry: slot 0 of each ring holds head (producer index)
// at +0 and tail (consumer index) at +64. Request slots carry
// seq(8)|cmd(1)|klen(4)|vlen(4)|key|val; response slots carry
// seq(8)|status(1)|plen(4)|payload. The seq is frontend-internal — the
// wire protocol stays plain RESP-lite, FIFO per connection.
const (
	prodRingCtl = 128
	prodSlots   = 16
	prodSlotCap = 8768 // fits hdr + maxNetKey + maxNetVal
	prodReqHdr  = 17
	prodRespHdr = 13
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

// ProdParams configures one production server process.
type ProdParams struct {
	// Port is the listening port (0 = 6379).
	Port uint16
	// Expected is the number of requests to serve before shutting down.
	Expected int
	// PayloadBytes and Keys size the pre-populated keyspace, matching the
	// traffic generator's deterministic key/value functions.
	PayloadBytes int
	Keys         int
	// Kind picks the keyspace regime.
	Kind KeyspaceKind
	// Cores is the per-node core count; the server clones one worker per
	// core per node (2*Cores workers).
	Cores int
	// AOFPath is the append-only log file (empty = "/redis.aof").
	AOFPath string
	// GroupK and GroupQ are the group-commit policy: flush the staged
	// records after GroupK commands or GroupQ cycles, whichever first
	// (0 = defaults 8 and 150000).
	GroupK int
	GroupQ sim.Cycles
}

// ProdWorkerStats is one worker's counters, for the -json export.
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
	// ServeCycles spans the frontend's serve loop (populate, clone and
	// recovery excluded).
	ServeCycles sim.Cycles
	PerWorker   []ProdWorkerStats
	// LiveDigest is the keyspace digest after the run; ReplayDigest is
	// the digest of a fresh store built by replaying the AOF. Equal
	// digests mean the log captured every surviving mutation.
	LiveDigest   uint64
	ReplayDigest uint64
	// AOFRecords counts records applied by the replay; AOFFileBytes is
	// the log's final size.
	AOFRecords   int
	AOFFileBytes int64
}

// queuedProd is one decoded request waiting for ring space.
type queuedProd struct {
	seq  uint64
	cmd  Command
	key  []byte
	val  []byte
	dest int
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

// ServeProd runs the production server on task t: listen, build the
// keyspace, log the populate phase to the AOF, clone the workers, serve
// Expected pipelined requests, then join, digest, and verify recovery.
func ServeProd(t *kernel.Task, p ProdParams) (ProdStats, error) {
	var st ProdStats
	if p.Port == 0 {
		p.Port = 6379
	}
	if p.AOFPath == "" {
		p.AOFPath = "/redis.aof"
	}
	if p.GroupK == 0 {
		p.GroupK = 8
	}
	if p.GroupQ == 0 {
		p.GroupQ = 150_000
	}
	if p.Cores < 1 {
		p.Cores = 1
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
	// Populate through the same Exec + AOF path live mutations use, so
	// the log replays into the complete keyspace, not just the deltas.
	front, err := openAOF(t, p.AOFPath, p.GroupK, p.GroupQ)
	if err != nil {
		return st, err
	}
	bp := BenchParams{PayloadBytes: p.PayloadBytes, Keys: p.Keys}
	for i := 0; i < p.Keys; i++ {
		key, val := keyFor(bp, i), valFor(bp, i)
		w := routeKey(t, key, workers)
		if _, _, err := ks.Exec(t, w, CmdSet, key, val); err != nil {
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

	serveErr := prodFrontend(t, p, rings, workers, lfd, &st)

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
	st.AOFRecords, err = RecoverAOF(t, p.AOFPath, rstore)
	if err != nil {
		return st, err
	}
	st.ReplayDigest, err = rstore.Digest(t)
	if err != nil {
		return st, err
	}
	rfd, err := t.OpenFile(p.AOFPath, vfs.ORead)
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
func buildKeyspace(t *kernel.Task, kind KeyspaceKind, workers int) (Keyspace, error) {
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
// request order, and flush them batched.
func prodFrontend(t *kernel.Task, p ProdParams, rings prodRings, workers int, lfd int, st *ProdStats) error {
	t.BeginTimed()
	defer func() { st.ServeCycles = t.TimedCycles() }()

	var conns []int
	rbufs := make(map[int][]byte)
	backlog := make(map[int][]queuedProd)
	pendSeq := make(map[int][]uint64) // per-conn seqs in request order
	respBySeq := make(map[uint64][]byte)
	var nextSeq uint64

	for st.Served < p.Expected {
		progress := false
		fd, err := t.TrySocketAccept(lfd)
		if err != nil {
			return err
		}
		if fd >= 0 {
			conns = append(conns, fd)
			progress = true
		}
		// Receive pump: decode every complete request per connection and
		// stage it (ring space permitting comes later).
		for ci := 0; ci < len(conns); ci++ {
			fd := conns[ci]
			data, err := t.TryRecvSock(fd, 4096)
			if err == io.EOF {
				if n := len(backlog[fd]) + len(pendSeq[fd]); n > 0 {
					return fmt.Errorf("redisapp: client closed with %d requests in flight", n)
				}
				if err := t.CloseSock(fd); err != nil {
					return err
				}
				conns = append(conns[:ci], conns[ci+1:]...)
				delete(rbufs, fd)
				ci--
				progress = true
				continue
			}
			if err != nil {
				return err
			}
			if len(data) == 0 {
				continue
			}
			progress = true
			buf := append(rbufs[fd], data...)
			for {
				cmd, key, val, rest, ok, derr := decodeRequest(buf)
				if derr != nil {
					return derr
				}
				if !ok {
					break
				}
				buf = rest
				// Protocol parsing cost, as in the single-task server.
				t.Compute(int64(20 + (len(key)+len(val))/8))
				q := queuedProd{
					seq: nextSeq, cmd: cmd,
					key: append([]byte(nil), key...), val: append([]byte(nil), val...),
					dest: routeKey(t, key, workers),
				}
				nextSeq++
				backlog[fd] = append(backlog[fd], q)
				pendSeq[fd] = append(pendSeq[fd], q.seq)
			}
			rbufs[fd] = buf
		}
		// Route pump: push each connection's backlog head-of-line into its
		// worker's ring; a full ring stalls only that connection.
		for _, fd := range conns {
			for len(backlog[fd]) > 0 {
				q := backlog[fd][0]
				ok, err := prodRingPush(t, rings.req(q.dest), q)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				backlog[fd] = backlog[fd][1:]
				progress = true
			}
		}
		// Response pump: drain every worker's response ring.
		for w := 0; w < workers; w++ {
			for {
				seq, status, payload, ok, err := prodRingPop(t, rings.resp(w))
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if status == 0 {
					st.Misses++
				}
				respBySeq[seq] = encodeResponse(status, payload)
				progress = true
			}
		}
		// Flush pump: emit each connection's ready responses in request
		// order, one socket write per connection per pass.
		for _, fd := range conns {
			var out []byte
			for len(pendSeq[fd]) > 0 {
				r, ok := respBySeq[pendSeq[fd][0]]
				if !ok {
					break
				}
				out = append(out, r...)
				delete(respBySeq, pendSeq[fd][0])
				pendSeq[fd] = pendSeq[fd][1:]
				st.Served++
			}
			if len(out) > 0 {
				if _, err := t.SendSock(fd, out); err != nil {
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
	for _, fd := range conns {
		if err := t.CloseSock(fd); err != nil {
			return err
		}
	}
	return nil
}

// prodRingPush enqueues one request if the ring has space. Ring control
// words synchronize tasks through plain simulated memory, so every
// operation is bracketed by yield points: the engine orders cross-thread
// visibility at segment granularity, so a ring store buried mid-segment
// between parking syscalls would become visible at whatever simulated time
// the segment happened to end, not at the store's own.
func prodRingPush(t *kernel.Task, ring pgtable.VirtAddr, q queuedProd) (ok bool, err error) {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	head, err := t.Load(ring, 8)
	if err != nil {
		return false, err
	}
	tail, err := t.Load(ring+64, 8)
	if err != nil {
		return false, err
	}
	if head-tail >= prodSlots {
		return false, nil
	}
	buf := make([]byte, prodReqHdr+len(q.key)+len(q.val))
	binary.LittleEndian.PutUint64(buf[0:8], q.seq)
	buf[8] = byte(q.cmd)
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(q.key)))
	binary.LittleEndian.PutUint32(buf[13:17], uint32(len(q.val)))
	copy(buf[prodReqHdr:], q.key)
	copy(buf[prodReqHdr+len(q.key):], q.val)
	slot := ring + prodRingCtl + pgtable.VirtAddr(int(head%prodSlots)*prodSlotCap)
	if err := t.WriteBytes(slot, buf); err != nil {
		return false, err
	}
	if err := t.Store(ring, 8, head+1); err != nil {
		return false, err
	}
	return true, nil
}

// prodRingPop dequeues one response if available (yield discipline as in
// prodRingPush).
func prodRingPop(t *kernel.Task, ring pgtable.VirtAddr) (seq uint64, status byte, payload []byte, ok bool, err error) {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	head, err := t.Load(ring, 8)
	if err != nil {
		return 0, 0, nil, false, err
	}
	tail, err := t.Load(ring+64, 8)
	if err != nil {
		return 0, 0, nil, false, err
	}
	if head == tail {
		return 0, 0, nil, false, nil
	}
	slot := ring + prodRingCtl + pgtable.VirtAddr(int(tail%prodSlots)*prodSlotCap)
	hdr, err := t.ReadBytes(slot, prodRespHdr)
	if err != nil {
		return 0, 0, nil, false, err
	}
	seq = binary.LittleEndian.Uint64(hdr[0:8])
	status = hdr[8]
	plen := int(binary.LittleEndian.Uint32(hdr[9:13]))
	if plen < 0 || prodRespHdr+plen > prodSlotCap {
		return 0, 0, nil, false, fmt.Errorf("redisapp: corrupt response slot (plen=%d)", plen)
	}
	if plen > 0 {
		payload, err = t.ReadBytes(slot+prodRespHdr, plen)
		if err != nil {
			return 0, 0, nil, false, err
		}
	}
	if err := t.Store(ring+64, 8, tail+1); err != nil {
		return 0, 0, nil, false, err
	}
	return seq, status, payload, true, nil
}

// prodRingConsume dequeues the request at tail (yield discipline as in
// prodRingPush: the slot reads and the tail publication are one ordering
// unit).
func prodRingConsume(t *kernel.Task, reqRing pgtable.VirtAddr, tail uint64) (seq uint64, cmd Command, key, val []byte, err error) {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	slot := reqRing + prodRingCtl + pgtable.VirtAddr(int(tail%prodSlots)*prodSlotCap)
	hdr, err := t.ReadBytes(slot, prodReqHdr)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	seq = binary.LittleEndian.Uint64(hdr[0:8])
	cmd = Command(hdr[8])
	klen := int(binary.LittleEndian.Uint32(hdr[9:13]))
	vlen := int(binary.LittleEndian.Uint32(hdr[13:17]))
	if klen <= 0 || klen > maxNetKey || vlen < 0 || vlen > maxNetVal {
		return 0, 0, nil, nil, fmt.Errorf("redisapp: corrupt ring slot (klen=%d vlen=%d)", klen, vlen)
	}
	key, err = t.ReadBytes(slot+prodReqHdr, klen)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if vlen > 0 {
		val, err = t.ReadBytes(slot+prodReqHdr+pgtable.VirtAddr(klen), vlen)
		if err != nil {
			return 0, 0, nil, nil, err
		}
	}
	if err := t.Store(reqRing+64, 8, tail+1); err != nil {
		return 0, 0, nil, nil, err
	}
	return seq, cmd, key, val, nil
}

// prodRingPeek reads a ring's control words plus the stop flag as one
// ordering unit. The worker wait loops spin on this: the loads are
// cross-task shared state, so even a read-only probe starts at a yield
// point — a probe running ahead of a lower-clocked producer's pending
// publication would observe the ring before that publication's simulated
// time.
func prodRingPeek(t *kernel.Task, ring, stopAddr pgtable.VirtAddr) (head, tail, stop uint64, err error) {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	if head, err = t.Load(ring, 8); err != nil {
		return
	}
	if tail, err = t.Load(ring+64, 8); err != nil {
		return
	}
	stop, err = t.Load(stopAddr, 8)
	return
}

// prodRingRespond enqueues one response (yield discipline as in
// prodRingPush). The caller has already established that the ring has
// space; the worker is the ring's only producer, so the space cannot
// vanish between the check and this section.
func prodRingRespond(t *kernel.Task, respRing pgtable.VirtAddr, seq uint64, status byte, payload []byte) error {
	t.Th.YieldPoint()
	defer t.Th.YieldPoint()
	rh, err := t.Load(respRing, 8)
	if err != nil {
		return err
	}
	rbuf := make([]byte, prodRespHdr+len(payload))
	binary.LittleEndian.PutUint64(rbuf[0:8], seq)
	rbuf[8] = status
	binary.LittleEndian.PutUint32(rbuf[9:13], uint32(len(payload)))
	copy(rbuf[prodRespHdr:], payload)
	rslot := respRing + prodRingCtl + pgtable.VirtAddr(int(rh%prodSlots)*prodSlotCap)
	if err := t.WriteBytes(rslot, rbuf); err != nil {
		return err
	}
	return t.Store(respRing, 8, rh+1)
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
	log, err := openAOF(t, p.AOFPath, p.GroupK, p.GroupQ)
	if err != nil {
		return err
	}
	reqRing, respRing := rings.req(w), rings.resp(w)
	for {
		head, tail, stop, err := prodRingPeek(t, reqRing, rings.stop(w))
		if err != nil {
			return err
		}
		if head == tail {
			if stop != 0 {
				break
			}
			t.Th.Advance(300) // worker poll interval
			t.Th.YieldPoint()
			continue
		}
		seq, cmd, key, val, err := prodRingConsume(t, reqRing, tail)
		if err != nil {
			return err
		}
		payload, miss, err := ks.Exec(t, w, cmd, key, val)
		if err != nil {
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
		for {
			rh, rt, stop, err := prodRingPeek(t, respRing, rings.stop(w))
			if err != nil {
				return err
			}
			if rh-rt < prodSlots {
				break
			}
			if stop != 0 {
				return log.Close(t)
			}
			t.Th.Advance(200)
			t.Th.YieldPoint()
		}
		status := byte(1)
		if miss > 0 {
			status = 0
		}
		if err := prodRingRespond(t, respRing, seq, status, payload); err != nil {
			return err
		}
		out.Ops++
		out.Misses += int64(miss)
	}
	if err := log.Close(t); err != nil {
		return err
	}
	out.FsyncBatches = log.Batches
	out.AOFRecords = log.Records
	out.AOFBytes = log.Bytes
	out.FutexWaits = t.Stats.FutexWaits
	return nil
}

// ProdClusterResult is one production cluster run: machine 0 generated
// the traffic, machines 1..Servers ran ServeProd.
type ProdClusterResult struct {
	Servers   int
	Traffic   TrafficResult
	PerServer []ProdStats
}

// ClusterProdBench drives one GenerateTraffic load balancer into ServeProd
// servers on the remaining machines, mirroring ClusterBench.
func ClusterProdBench(cl *machine.Cluster, p TrafficParams, pp ProdParams) (ProdClusterResult, error) {
	nS := len(cl.Machines) - 1
	if err := p.Validate(nS); err != nil {
		return ProdClusterResult{}, err
	}
	if p.Port == 0 {
		p.Port = 6379
	}
	expected := make([]int, nS)
	for i := 0; i < p.Requests; i++ {
		expected[i%nS]++
	}
	res := ProdClusterResult{Servers: nS, PerServer: make([]ProdStats, nS)}
	specs := make([]machine.ClusterTask, 0, nS+1)
	for s := 0; s < nS; s++ {
		s := s
		specs = append(specs, machine.ClusterTask{Mach: s + 1, TaskSpec: machine.TaskSpec{
			Name: fmt.Sprintf("redis-prod-%d", s), Origin: mem.NodeX86, KeepAlive: true,
			Body: func(t *kernel.Task) error {
				st, err := ServeProd(t, ProdParams{
					Port: p.Port, Expected: expected[s],
					PayloadBytes: p.PayloadBytes, Keys: p.Keys,
					Kind: pp.Kind, Cores: pp.Cores,
					AOFPath: pp.AOFPath, GroupK: pp.GroupK, GroupQ: pp.GroupQ,
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
