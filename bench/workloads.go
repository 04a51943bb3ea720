package main

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/microbench"
	"repro/internal/net"
	"repro/internal/npb"
	"repro/internal/redisapp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// sizes scales every workload. fullSizes is the ledger's fixed matrix
// (ISSUE 11); tinySizes is the smoke test's sub-second version of the
// same cells.
type sizes struct {
	class           npb.Class
	futexLoops      int
	granPages       int
	memBytes        int
	prodRequests    int
	prodCores       int // per node; the server runs 2*prodCores workers
	clusterRequests int
}

var (
	fullSizes = sizes{class: npb.ClassW, futexLoops: 5000, granPages: 4096,
		memBytes: 16 << 20, prodRequests: 1000, prodCores: 4, clusterRequests: 12000}
	tinySizes = sizes{class: npb.ClassT, futexLoops: 40, granPages: 16,
		memBytes: 64 << 10, prodRequests: 40, prodCores: 1, clusterRequests: 40}
)

// Open-loop arrival gaps in generator cycles: sat saturates every serving
// cell (measures capacity); the lo gaps sit at about two thirds of the
// primary cell's capacity, so latency is measured without a growing
// backlog.
const (
	gapSat       sim.Cycles = 900
	gapLoRedis   sim.Cycles = 30000
	gapLoCluster sim.Cycles = 10000
)

// counts accumulates, over a repetition, what every cell's machines report
// after their run: the exported Stats of each layer, summed over nodes and
// machines, reduced to the numbers the per-layer metrics read.
type counts struct {
	engine sim.EngineStats

	accesses, l1dAccesses, l1dHits, l3Accesses, l3Hits int64 // cache.Stats
	snoops, remoteMemHits                              int64

	messages                           int64 // interconnect.Stats
	pageReplications, dsmInvalidations int64 // popcorn.Stats
	remotePTWrites, originHandled      int64 // stramash.Stats
	txFrames, retransmits, rxHighwater int64 // net.NICStats

	fileHits, fileMisses, writebacks, invalidations, syncs int64 // vfs.Stats
	fileMsgCycles                                          sim.Cycles

	// The workload task's own counters, where the layer API hands the task
	// back (NPB only; microbenchmarks and servers keep theirs).
	loadsStores, tlbMisses, instructions int64

	// redisapp.ProdStats (zero outside the redis workloads).
	serveCycles                          sim.Cycles
	aofRecords, fsyncBatches, futexWaits int64
	workerOps                            []int64
}

func (c *counts) addMachine(m *machine.Machine) {
	for n := mem.NodeID(0); n < 2; n++ {
		cs := m.CacheStats(n)
		c.accesses += cs.MemAccesses
		c.l1dAccesses += cs.L1DAccesses
		c.l1dHits += cs.L1DHits
		c.l3Accesses += cs.L3Accesses
		c.l3Hits += cs.L3Hits
		c.snoops += cs.SnoopInvalidations + cs.SnoopDataForwards
		c.remoteMemHits += cs.RemoteMemHits
	}
	c.messages += m.Messages()
	ps, ss, ns, fs := m.PopcornStats(), m.StramashStats(), m.NICStats(), m.FileStats()
	c.pageReplications += ps.PageReplications
	c.dsmInvalidations += ps.DSMInvalidations
	c.remotePTWrites += ss.RemotePTWrites
	c.originHandled += ss.OriginHandled
	c.txFrames += ns.TxFrames
	c.retransmits += ns.Retransmits
	if ns.RxOccHW > c.rxHighwater {
		c.rxHighwater = ns.RxOccHW
	}
	for n := 0; n < 2; n++ {
		c.fileHits += fs.Hits[n]
		c.fileMisses += fs.Misses[n]
		c.writebacks += fs.Writebacks[n]
		c.invalidations += fs.Invalidations[n]
		c.syncs += fs.Syncs[n]
	}
	c.fileMsgCycles += fs.TotalMsgCycles()
}

// addSingle reads a stand-alone machine (its engine is its own).
func (c *counts) addSingle(m *machine.Machine) {
	c.addMachine(m)
	c.engine.Add(m.EngineStats())
}

func (c *counts) addCluster(cl *machine.Cluster) {
	for _, m := range cl.Machines {
		c.addMachine(m)
	}
	c.engine.Add(cl.EngineStats())
}

// cellOut is one cell's outcome: its timed simulated cycles, the
// generator's view for serving cells, and the correctness checks it ran.
type cellOut struct {
	cycles  sim.Cycles
	traffic *redisapp.TrafficResult
	checks  []check
}

// check is one correctness assertion; a false ok counts as one failed
// operation and is named on stderr.
type check struct {
	name string
	ok   bool
}

// cell is one (configuration, load) point of a workload. run builds fresh
// machines with tr attached (nil = untraced), runs, verifies, and adds the
// machines' counters to acc; sp brackets build/run/verify in
// benchmark-side spans under parent.
type cell struct {
	name string
	run  func(tr trace.Tracer, sp *spans, parent int, acc *counts) (cellOut, error)
}

// workload is one named set of cells plus how its repetition's simulated
// numbers reduce to the end-to-end metrics.
type workload struct {
	name   string
	why    string
	params map[string]any
	cells  []cell
	// serving workloads name their primary cells; batch workloads leave
	// these at -1 and every cell counts as one operation.
	primarySat, primaryLo int
	// speedup returns baseline cycles ÷ fused cycles from a repetition's
	// per-cell cycles.
	speedup func(cyc []int64) float64
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ---------------------------------------------------------------- npb-mem

type npbConfig struct {
	label   string
	os      machine.OSKind
	model   mem.Model
	migrate bool
}

var npbConfigs = []npbConfig{
	{"Stramash", machine.StramashOS, mem.Shared, true},
	{"Popcorn-SHM", machine.PopcornSHM, mem.Shared, true},
	{"Vanilla", machine.VanillaOS, mem.FullyShared, false},
}

func npbCell(kernelName string, class npb.Class, cfg npbConfig) cell {
	return cell{
		name: kernelName + "/" + cfg.label,
		run: func(tr trace.Tracer, sp *spans, parent int, acc *counts) (cellOut, error) {
			var out cellOut
			id := sp.begin("build", parent)
			m, err := machine.New(machine.Config{Model: cfg.model, OS: cfg.os, Tracer: tr})
			sp.end(id)
			if err != nil {
				return out, err
			}
			w, err := npb.New(kernelName, class)
			if err != nil {
				return out, err
			}
			id = sp.begin("run", parent)
			// Run verifies its own result: a wrong answer is an error.
			res, err := m.RunSingle(kernelName, mem.NodeX86, func(t *kernel.Task) error {
				if err := w.Run(t, cfg.migrate); err != nil {
					return err
				}
				out.cycles = t.TimedCycles()
				return nil
			})
			sp.end(id)
			id = sp.begin("verify", parent)
			defer sp.end(id)
			out.checks = append(out.checks, check{"npb self-verification " + kernelName + "/" + cfg.label, err == nil})
			if err != nil {
				fmt.Fprintf(errOut, "bench: %s/%s: %v\n", kernelName, cfg.label, err)
				return out, nil
			}
			acc.addSingle(m)
			ts := res.Task.Stats
			acc.loadsStores += ts.Loads + ts.Stores
			acc.tlbMisses += ts.TLBMisses
			acc.instructions += ts.Instructions
			return out, nil
		},
	}
}

func npbMem(sz sizes) workload {
	w := workload{
		name:       "npb-mem",
		why:        "NPB IS/CG/MG/FT, migrating each step: ~20 M accesses through cache, TLB, mem, pgtable on one thread; net, vfs, cap, redisapp idle, engine hand-offs rare (Fig. 9)",
		params:     map[string]any{"class": sz.class.String(), "kernels": npb.Names(), "configs": []string{"Stramash/Shared/migrate", "Popcorn-SHM/Shared/migrate", "Vanilla/FullyShared"}},
		primarySat: -1, primaryLo: -1,
	}
	for _, k := range npb.Names() {
		for _, cfg := range npbConfigs {
			w.cells = append(w.cells, npbCell(k, sz.class, cfg))
		}
	}
	n := len(npbConfigs)
	w.speedup = func(cyc []int64) float64 {
		var rs []float64
		for k := range npb.Names() {
			rs = append(rs, float64(cyc[k*n+1])/float64(cyc[k*n]))
		}
		return geomean(rs)
	}
	return w
}

// --------------------------------------------------------------- os-paths

var osPathsOSes = []machine.OSKind{machine.StramashOS, machine.PopcornSHM}

// microCell wraps one microbenchmark run on a fresh machine.
func microCell(name string, os machine.OSKind, run func(m *machine.Machine) (sim.Cycles, []check, error)) cell {
	return cell{
		name: name + "/" + os.String(),
		run: func(tr trace.Tracer, sp *spans, parent int, acc *counts) (cellOut, error) {
			var out cellOut
			id := sp.begin("build", parent)
			m, err := machine.New(machine.Config{Model: mem.Shared, OS: os, Tracer: tr})
			sp.end(id)
			if err != nil {
				return out, err
			}
			id = sp.begin("run", parent)
			cyc, checks, err := run(m)
			sp.end(id)
			if err != nil {
				return out, fmt.Errorf("%s/%v: %w", name, os, err)
			}
			id = sp.begin("verify", parent)
			out.cycles = cyc
			out.checks = checks
			acc.addSingle(m)
			sp.end(id)
			return out, nil
		},
	}
}

func osPaths(sz sizes) workload {
	w := workload{
		name: "os-paths",
		why:  "futex ping-pong, 1-line-per-page and page-strided remote access: fault, DSM replication, remote-PTE, ring, IPI and futex slow paths; the per-access memory pipeline does little (Fig. 11-13)",
		params: map[string]any{"futex_loops": sz.futexLoops, "granularity": map[string]int{"lines": 1, "pages": sz.granPages},
			"memaccess": map[string]int{"bytes": sz.memBytes, "stride": 4096}, "model": "Shared"},
		primarySat: -1, primaryLo: -1,
	}
	type micro struct {
		name string
		run  func(m *machine.Machine) (sim.Cycles, []check, error)
	}
	memAccess := func(dir microbench.Direction) func(m *machine.Machine) (sim.Cycles, []check, error) {
		return func(m *machine.Machine) (sim.Cycles, []check, error) {
			r, err := microbench.RunMemAccess(m, microbench.MemAccessParams{Bytes: sz.memBytes, Stride: 4096}, dir)
			want := int64(sz.memBytes / 4096)
			return r.Cycles, []check{{fmt.Sprintf("memaccess %v accesses == %d", dir, want), r.Accesses == want}}, err
		}
	}
	micros := []micro{
		{"futex", func(m *machine.Machine) (sim.Cycles, []check, error) {
			r, err := microbench.RunFutexPingPong(m, sz.futexLoops)
			return r.Cycles, []check{{"futex Counter == Loops", r.Counter == uint64(sz.futexLoops)}}, err
		}},
		{"granularity", func(m *machine.Machine) (sim.Cycles, []check, error) {
			r, err := microbench.RunGranularity(m, microbench.GranularityParams{Lines: 1, Pages: sz.granPages})
			return r.Cycles, []check{{"granularity ran 1 line/page", r.Lines == 1 && r.Cycles > 0}}, err
		}},
		{"memaccess-RaO", memAccess(microbench.RemoteAccessOrigin)},
		{"memaccess-OaR", memAccess(microbench.OriginAccessRemote)},
	}
	for _, mb := range micros {
		for _, os := range osPathsOSes {
			w.cells = append(w.cells, microCell(mb.name, os, mb.run))
		}
	}
	w.speedup = func(cyc []int64) float64 {
		var rs []float64
		for i := range micros {
			rs = append(rs, float64(cyc[2*i+1])/float64(cyc[2*i]))
		}
		return geomean(rs)
	}
	return w
}

// -------------------------------------------------------- redis-get / -set

const (
	prodKeys    = 64
	prodPayload = 1024
)

func prodTraffic(sz sizes, seed uint64, gap sim.Cycles, setEvery int) redisapp.TrafficParams {
	return redisapp.TrafficParams{Requests: sz.prodRequests, Clients: 32, PayloadBytes: prodPayload,
		Keys: prodKeys, ZipfS: 1.4, InterArrival: gap, SetEvery: setEvery, Seed: seed}
}

// prodCell is one production-redis cell: a loadgen machine and one 4-core
// time-sliced server machine (8 workers) on one switch.
func prodCell(name string, sz sizes, seed uint64, gap sim.Cycles, setEvery int, kind redisapp.KeyspaceKind, regime vfs.Regime) cell {
	p := prodTraffic(sz, seed, gap, setEvery)
	return cell{
		name: name,
		run: func(tr trace.Tracer, sp *spans, parent int, acc *counts) (cellOut, error) {
			var out cellOut
			id := sp.begin("build", parent)
			cl, err := machine.NewCluster([]machine.Config{
				{Model: mem.Shared, OS: machine.StramashOS, Tracer: tr},
				{Model: mem.Shared, OS: machine.StramashOS, Tracer: tr, FileCache: regime,
					Cores: sz.prodCores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
			}, net.DefaultFabricConfig())
			sp.end(id)
			if err != nil {
				return out, err
			}
			id = sp.begin("run", parent)
			r, err := redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: kind, Cores: sz.prodCores})
			sp.end(id)
			if err != nil {
				return out, fmt.Errorf("%s: %w", name, err)
			}
			id = sp.begin("verify", parent)
			defer sp.end(id)
			srv := r.PerServer[0]
			sets := 0
			if p.SetEvery > 0 {
				sets = (p.Requests + p.SetEvery - 1) / p.SetEvery
			}
			out.cycles = r.Traffic.Elapsed
			out.traffic = &r.Traffic
			out.checks = []check{
				{name + ": Traffic.Done == Requests", r.Traffic.Done == p.Requests},
				{name + ": Traffic.Misses == 0", r.Traffic.Misses == 0},
				{name + ": AOF replay digest == live digest", srv.ReplayDigest == srv.LiveDigest},
				{name + ": AOFRecords == populate + SETs", srv.AOFRecords == p.Keys+sets},
			}
			acc.addCluster(cl)
			acc.serveCycles += srv.ServeCycles
			acc.aofRecords += int64(srv.AOFRecords)
			for _, ws := range srv.PerWorker {
				acc.fsyncBatches += ws.FsyncBatches
				acc.futexWaits += ws.FutexWaits
				acc.workerOps = append(acc.workerOps, ws.Ops)
			}
			return out, nil
		},
	}
}

func prodParamsDoc(sz sizes, setEvery int) map[string]any {
	return map[string]any{"requests": sz.prodRequests, "clients": 32, "payload_bytes": prodPayload, "keys": prodKeys,
		"zipf_s": 1.4, "set_every": setEvery, "server_cores_per_node": sz.prodCores, "workers": 2 * sz.prodCores,
		"interarrival_sat": int64(gapSat), "interarrival_lo": int64(gapLoRedis), "loop": "open"}
}

func redisGet(sz sizes, seed uint64) workload {
	return workload{
		name:   "redis-get",
		why:    "read-only production redis: NIC rings, switch, socket syscalls, worker rings, keyspace and above all engine thread hand-offs; the AOF/VFS path is nearly idle (populate records only)",
		params: prodParamsDoc(sz, 0),
		cells: []cell{
			prodCell("sharded/fused@sat", sz, seed, gapSat, 0, redisapp.KSSharded, vfs.RegimeFused),
			prodCell("sharded/fused@lo", sz, seed, gapLoRedis, 0, redisapp.KSSharded, vfs.RegimeFused),
			prodCell("locked/fused@sat", sz, seed, gapSat, 0, redisapp.KSLocked, vfs.RegimeFused),
			prodCell("sharded/popcorn@sat", sz, seed, gapSat, 0, redisapp.KSSharded, vfs.RegimePopcorn),
		},
		primarySat: 0, primaryLo: 1,
		// GETs bypass the file cache, so the regime ratio should sit near 1:
		// the workload on the far side of redis-set's mechanism.
		speedup: func(cyc []int64) float64 { return float64(cyc[3]) / float64(cyc[0]) },
	}
}

func redisSet(sz sizes, seed uint64) workload {
	return workload{
		name:   "redis-set",
		why:    "same server, every request a SET: adds AOF append, group-commit fsync, LockAppend and (popcorn regime) page-cache DSM invalidations; a gain for GETs that costs SETs shows here",
		params: prodParamsDoc(sz, 1),
		cells: []cell{
			prodCell("sharded/fused@sat", sz, seed, gapSat, 1, redisapp.KSSharded, vfs.RegimeFused),
			prodCell("sharded/fused@lo", sz, seed, gapLoRedis, 1, redisapp.KSSharded, vfs.RegimeFused),
			prodCell("sharded/popcorn@sat", sz, seed, gapSat, 1, redisapp.KSSharded, vfs.RegimePopcorn),
		},
		primarySat: 0, primaryLo: 1,
		speedup: func(cyc []int64) float64 { return float64(cyc[2]) / float64(cyc[0]) },
	}
}

// ----------------------------------------------------------- cluster-4srv

const clusterServers = 4

func clusterCell(name string, p redisapp.TrafficParams, os machine.OSKind, model mem.Model) cell {
	return cell{
		name: name,
		run: func(tr trace.Tracer, sp *spans, parent int, acc *counts) (cellOut, error) {
			var out cellOut
			id := sp.begin("build", parent)
			cfgs := make([]machine.Config, clusterServers+1)
			for i := range cfgs {
				cfgs[i] = machine.Config{Model: model, OS: os, Tracer: tr}
			}
			cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
			sp.end(id)
			if err != nil {
				return out, err
			}
			id = sp.begin("run", parent)
			r, err := redisapp.ClusterBench(cl, p)
			sp.end(id)
			if err != nil {
				return out, fmt.Errorf("%s: %w", name, err)
			}
			id = sp.begin("verify", parent)
			defer sp.end(id)
			served := 0
			for _, s := range r.PerServer {
				served += s.Served
			}
			out.cycles = r.Traffic.Elapsed
			out.traffic = &r.Traffic
			out.checks = []check{
				{name + ": Traffic.Done == Requests", r.Traffic.Done == p.Requests},
				{name + ": Traffic.Misses == 0", r.Traffic.Misses == 0},
				{name + ": servers' Served sums to Requests", served == p.Requests},
			}
			acc.addCluster(cl)
			return out, nil
		},
	}
}

func cluster4(sz sizes, seed uint64) workload {
	traffic := func(gap sim.Cycles) redisapp.TrafficParams {
		return redisapp.TrafficParams{Requests: sz.clusterRequests, Clients: 32, PayloadBytes: 512, Keys: 32,
			ZipfS: 1.0, InterArrival: gap, SetEvery: 10, Seed: seed, ServerCompute: 20000}
	}
	return workload{
		name: "cluster-4srv",
		why:  "loadgen + 4 single-task ServeNet machines sharing only the switch, with per-request compute: where an engine/driver change must show and fabric arbitration is busiest; default engine",
		params: map[string]any{"requests": sz.clusterRequests, "clients": 32, "payload_bytes": 512, "keys": 32, "zipf_s": 1.0,
			"set_every": 10, "server_compute": 20000, "servers": clusterServers,
			"interarrival_sat": int64(gapSat), "interarrival_lo": int64(gapLoCluster), "loop": "open"},
		cells: []cell{
			clusterCell("Stramash@sat", traffic(gapSat), machine.StramashOS, mem.Shared),
			clusterCell("Stramash@lo", traffic(gapLoCluster), machine.StramashOS, mem.Shared),
			clusterCell("Popcorn-SHM@sat", traffic(gapSat), machine.PopcornSHM, mem.Separated),
		},
		primarySat: 0, primaryLo: 1,
		speedup: func(cyc []int64) float64 { return float64(cyc[2]) / float64(cyc[0]) },
	}
}

// workloadNames is the ledger's fixed order.
var workloadNames = []string{"npb-mem", "os-paths", "redis-get", "redis-set", "cluster-4srv"}

func buildWorkload(name string, sz sizes, seed uint64) (workload, error) {
	switch name {
	case "npb-mem":
		return npbMem(sz), nil
	case "os-paths":
		return osPaths(sz), nil
	case "redis-get":
		return redisGet(sz, seed), nil
	case "redis-set":
		return redisSet(sz, seed), nil
	case "cluster-4srv":
		return cluster4(sz, seed), nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
