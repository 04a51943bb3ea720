package experiments

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
	"repro/internal/vfs"
)

// This file is the production-redis experiment: a load generator machine
// drives pipelined zipfian traffic into one production server machine —
// frontend plus one cloned worker per core per node, routed over
// simulated-memory rings — across three axes. The keyspace regime
// (hash-partitioned private shards vs. one futex-locked shared store) and
// the per-node core count probe the multi-core server itself; the file
// cache regime (fused vs. popcorn) probes what the AOF persistence path
// costs under each coherence model, because every worker appends to one
// shared log file through the VFS. The served bytes must be identical in
// every cell — the axes are allowed to move time, never content.

// redisprodCores is the swept per-node core count (2*cores workers).
var redisprodCores = []int{1, 2, 4}

// redisprodKinds is the swept keyspace regime.
var redisprodKinds = []redisapp.KeyspaceKind{redisapp.KSSharded, redisapp.KSLocked}

// redisprodRegimes is the swept file-cache regime behind the AOF.
var redisprodRegimes = []vfs.Regime{vfs.RegimeFused, vfs.RegimePopcorn}

// RedisprodRow is one (kind, regime, cores) measurement.
type RedisprodRow struct {
	Kind    redisapp.KeyspaceKind
	Regime  vfs.Regime
	Cores   int
	Traffic redisapp.TrafficResult
	Server  redisapp.ProdStats
	// FS is the server machine's page-cache accounting; Messages its
	// inter-kernel message count.
	FS       vfs.Stats
	Messages int64
	// Engine holds the cluster engine's driver counters (never rendered).
	Engine map[string]int64
}

// RedisprodResult is the experiment output.
type RedisprodResult struct {
	Params redisapp.TrafficParams
	Rows   []RedisprodRow
}

// redisprodParams returns the traffic for one scale.
func redisprodParams(s Scale) redisapp.TrafficParams {
	p := redisapp.TrafficParams{
		Requests: 240, Clients: 16, PayloadBytes: 1024, Keys: 32,
		ZipfS: 1.4, InterArrival: 900, SetEvery: 2, Seed: 7,
	}
	if s == Full {
		p = redisapp.TrafficParams{
			Requests: 480, Clients: 32, PayloadBytes: 1024, Keys: 64,
			ZipfS: 1.4, InterArrival: 900, SetEvery: 2, Seed: 7,
		}
	}
	return p
}

// Redisprod runs the benchmark grid.
func Redisprod(s Scale, rows int) (Result, error) {
	p := redisprodParams(s)
	res := &RedisprodResult{Params: p}
	type cell struct {
		kind   redisapp.KeyspaceKind
		regime vfs.Regime
		cores  int
	}
	var cells []cell
	for _, kind := range redisprodKinds {
		for _, regime := range redisprodRegimes {
			for _, cores := range redisprodCores {
				cells = append(cells, cell{kind, regime, cores})
			}
		}
	}
	var err error
	if res.Rows, err = forEachRow(rows, cells, func(c cell) (RedisprodRow, error) {
		return redisprodRun(c.kind, c.regime, c.cores, p)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// RedisprodCell runs the grid's (kind, regime, cores) cell at scale s —
// the same traffic, machines and counters as Redisprod — as a one-row
// result.
func RedisprodCell(kind redisapp.KeyspaceKind, regime vfs.Regime, cores int, s Scale) (*RedisprodResult, error) {
	p := redisprodParams(s)
	row, err := redisprodRun(kind, regime, cores, p)
	if err != nil {
		return nil, err
	}
	return &RedisprodResult{Params: p, Rows: []RedisprodRow{row}}, nil
}

// redisprodRun measures one cell: boot a loadgen machine and a
// time-sliced multi-core server machine on one switch, run the pipelined
// benchmark, and collect every layer's counters.
func redisprodRun(kind redisapp.KeyspaceKind, regime vfs.Regime, cores int, p redisapp.TrafficParams) (RedisprodRow, error) {
	cfgs := []machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
			Cores: cores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		return RedisprodRow{}, err
	}
	r, err := redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: kind, Cores: cores})
	if err != nil {
		return RedisprodRow{}, err
	}
	row := RedisprodRow{
		Kind: kind, Regime: regime, Cores: cores,
		Traffic:  r.Traffic,
		Server:   r.PerServer[0],
		FS:       cl.Machines[1].FileStats(),
		Messages: cl.Machines[1].Messages(),
		Engine:   cl.EngineStats().Map(),
	}
	return row, nil
}

// Name implements Result.
func (r *RedisprodResult) Name() string {
	return "Production redis: sharded vs. locked keyspace, AOF under fused vs. popcorn"
}

// label names one cell the way Metrics keys and shape errors spell it.
func (row RedisprodRow) label() string {
	return fmt.Sprintf("%v/%v/%dc", row.Kind, row.Regime, row.Cores)
}

// Render implements Result.
func (r *RedisprodResult) Render() string {
	tw := &tableWriter{header: []string{"keyspace", "aof regime", "cores", "done", "p50 (cyc)", "p99 (cyc)", "elapsed (cyc)", "aof rec", "fsync batches", "futex waits"}}
	for _, row := range r.Rows {
		var batches, waits int64
		for _, w := range row.Server.PerWorker {
			batches += w.FsyncBatches
			waits += w.FutexWaits
		}
		tw.addRow(
			row.Kind.String(),
			row.Regime.String(),
			fmt.Sprintf("%d", row.Cores),
			fmt.Sprintf("%d", row.Traffic.Done),
			fmt.Sprintf("%d", int64(row.Traffic.P50)),
			fmt.Sprintf("%d", int64(row.Traffic.P99)),
			fmt.Sprintf("%d", int64(row.Traffic.Elapsed)),
			fmt.Sprintf("%d", row.Server.AOFRecords),
			fmt.Sprintf("%d", batches),
			fmt.Sprintf("%d", waits),
		)
	}
	return fmt.Sprintf("%d zipf(%.1f) pipelined requests, %dB values, %d keys, SET every %d, group commit through the VFS\n%s",
		r.Params.Requests, r.Params.ZipfS, r.Params.PayloadBytes, r.Params.Keys, r.Params.SetEvery, tw.String())
}

// row looks up one cell.
func (r *RedisprodResult) row(kind redisapp.KeyspaceKind, regime vfs.Regime, cores int) (RedisprodRow, bool) {
	return find(r.Rows, func(row RedisprodRow) bool {
		return row.Kind == kind && row.Regime == regime && row.Cores == cores
	})
}

// CellErrors is the per-cell check: conservation (every request served
// exactly once, no misses, worker ops sum to the request count),
// persistence integrity (replay digest equals live digest, the AOF holds
// exactly populate+SETs records, the group-commit fsync ran), and the
// page-cache counters prove the cell's regime actually ran (fused moves no
// DSM messages, popcorn writes back).
func (r *RedisprodResult) CellErrors(row RedisprodRow) []string {
	var errs []string
	label := row.label()
	if row.Traffic.Done != r.Params.Requests || row.Traffic.Sent != r.Params.Requests {
		errs = append(errs, fmt.Sprintf("%s: sent %d done %d, want %d",
			label, row.Traffic.Sent, row.Traffic.Done, r.Params.Requests))
	}
	if row.Traffic.Misses != 0 || row.Server.Misses != 0 {
		errs = append(errs, fmt.Sprintf("%s: %d client / %d server misses against a pre-populated keyspace",
			label, row.Traffic.Misses, row.Server.Misses))
	}
	if row.Server.Served != r.Params.Requests {
		errs = append(errs, fmt.Sprintf("%s: frontend served %d, want %d",
			label, row.Server.Served, r.Params.Requests))
	}
	var ops int64
	for _, w := range row.Server.PerWorker {
		ops += w.Ops
	}
	if ops != int64(r.Params.Requests) {
		errs = append(errs, fmt.Sprintf("%s: worker ops sum to %d, want %d",
			label, ops, r.Params.Requests))
	}
	if row.Server.ReplayDigest != row.Server.LiveDigest {
		errs = append(errs, fmt.Sprintf("%s: AOF replay digest %x != live digest %x — the log lost a mutation",
			label, row.Server.ReplayDigest, row.Server.LiveDigest))
	}
	// The AOF holds the populate plus one record per SET in the stream.
	wantAOF := r.Params.Keys
	if r.Params.SetEvery > 0 {
		wantAOF += (r.Params.Requests + r.Params.SetEvery - 1) / r.Params.SetEvery
	}
	if row.Server.AOFRecords != wantAOF {
		errs = append(errs, fmt.Sprintf("%s: AOF replayed %d records, want %d (populate %d + SETs)",
			label, row.Server.AOFRecords, wantAOF, r.Params.Keys))
	}
	if row.FS.Syncs[0]+row.FS.Syncs[1] == 0 {
		errs = append(errs, fmt.Sprintf("%s: no page-cache syncs — the group-commit fsync path never ran", label))
	}
	if row.Regime == vfs.RegimeFused && row.FS.TotalMsgCycles() != 0 {
		errs = append(errs, fmt.Sprintf("%s: fused page cache spent %d cycles on DSM messages",
			label, int64(row.FS.TotalMsgCycles())))
	}
	if row.Regime == vfs.RegimePopcorn && row.FS.Writebacks[0]+row.FS.Writebacks[1] == 0 {
		errs = append(errs, fmt.Sprintf("%s: popcorn page cache never wrote a page back", label))
	}
	return errs
}

// ShapeErrors implements Result: every cell passes CellErrors, the
// response digest is identical across cells, and the cost orderings the
// axes exist to show hold — the sharded keyspace does not lose to the
// locked one at the widest machine, and the fused AOF path beats
// popcorn's.
func (r *RedisprodResult) ShapeErrors() []string {
	var errs []string
	var digest uint64
	var haveDigest bool
	for _, kind := range redisprodKinds {
		for _, regime := range redisprodRegimes {
			for _, cores := range redisprodCores {
				row, ok := r.row(kind, regime, cores)
				label := fmt.Sprintf("%v/%v/%dc", kind, regime, cores)
				if !ok {
					errs = append(errs, "missing cell "+label)
					continue
				}
				errs = append(errs, r.CellErrors(row)...)
				if !haveDigest {
					digest, haveDigest = row.Traffic.Digest, true
				} else if row.Traffic.Digest != digest {
					errs = append(errs, fmt.Sprintf("%s: digest %x differs from first cell's %x — served content is not regime- and layout-independent",
						label, row.Traffic.Digest, digest))
				}
			}
		}
	}
	// The locked keyspace pays futex-backed bucket stripes and a shared
	// allocator on every operation; at the widest machine the sharded
	// keyspace must serve faster at the median, and its makespan must not
	// trail by more than the scheduling jitter a saturated open-loop run
	// carries (the makespan is set by the last straggler, so it wobbles a
	// few percent with time-slice phase even between identical regimes).
	maxCores := redisprodCores[len(redisprodCores)-1]
	for _, regime := range redisprodRegimes {
		sh, okS := r.row(redisapp.KSSharded, regime, maxCores)
		lk, okL := r.row(redisapp.KSLocked, regime, maxCores)
		if !okS || !okL {
			continue
		}
		if sh.Traffic.P50 > lk.Traffic.P50 {
			errs = append(errs, fmt.Sprintf("%v/%dc: sharded p50 %d exceeds locked %d — partitioning lost to lock striping",
				regime, maxCores, int64(sh.Traffic.P50), int64(lk.Traffic.P50)))
		}
		if int64(sh.Traffic.Elapsed)*100 > int64(lk.Traffic.Elapsed)*105 {
			errs = append(errs, fmt.Sprintf("%v/%dc: sharded elapsed %d is over 5%% beyond locked %d",
				regime, maxCores, int64(sh.Traffic.Elapsed), int64(lk.Traffic.Elapsed)))
		}
	}
	// Persistence through the fused page cache must beat popcorn's DSM
	// replication: every worker appends to the same log file, which is a
	// coherent store on fused and a fetch/writeback conversation on
	// popcorn.
	for _, kind := range redisprodKinds {
		for _, cores := range redisprodCores {
			f, okF := r.row(kind, vfs.RegimeFused, cores)
			p, okP := r.row(kind, vfs.RegimePopcorn, cores)
			if !okF || !okP {
				continue
			}
			if f.Traffic.Elapsed >= p.Traffic.Elapsed {
				errs = append(errs, fmt.Sprintf("%v/%dc: fused elapsed %d does not beat popcorn %d",
					kind, cores, int64(f.Traffic.Elapsed), int64(p.Traffic.Elapsed)))
			}
		}
	}
	return errs
}

// Metrics implements CycleMetrics: latency, volume and persistence
// counters per cell, and per-worker counters keyed by worker index.
func (r *RedisprodResult) Metrics() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		base := row.label()
		m["cycles/"+base] = int64(row.Traffic.Elapsed)
		m["p50/"+base] = int64(row.Traffic.P50)
		m["p99/"+base] = int64(row.Traffic.P99)
		m["done/"+base] = int64(row.Traffic.Done)
		m["serve_cycles/"+base] = int64(row.Server.ServeCycles)
		m["aof_records/"+base] = int64(row.Server.AOFRecords)
		m["aof_bytes/"+base] = row.Server.AOFFileBytes
		m["msg_cycles/"+base] = int64(row.FS.TotalMsgCycles())
		m["messages/"+base] = row.Messages
		for w, ws := range row.Server.PerWorker {
			wb := fmt.Sprintf("%s/w%d", base, w)
			m["worker_ops/"+wb] = ws.Ops
			m["futex_waits/"+wb] = ws.FutexWaits
			m["aof_fsync_batches/"+wb] = ws.FsyncBatches
		}
	}
	return m
}

// EngineStats implements EngineStatsSource: per-cell driver counters,
// keyed like Metrics.
func (r *RedisprodResult) EngineStats() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		for k, v := range row.Engine {
			m[k+"/"+row.label()] = v
		}
	}
	return m
}
