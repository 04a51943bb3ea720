package main

import (
	"flag"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
	"repro/internal/vfs"
)

// prodCmd defines the prod subcommand.
func prodCmd(fs *flag.FlagSet) func() {
	kindName := fs.String("kind", "sharded", "keyspace regime: sharded or locked")
	regime := regimeFlag(fs)
	cores := fs.Int("cores", 2, "server cores per node (2x workers)")
	requests := requestsFlag(fs)
	return func() {
		kind, ok := map[string]redisapp.KeyspaceKind{"sharded": redisapp.KSSharded, "locked": redisapp.KSLocked}[*kindName]
		if !ok {
			fatal(fmt.Errorf("unknown keyspace %q (sharded or locked)", *kindName))
		}
		fatal(runProd(kind, parseRegime(*regime), *cores, *requests))
	}
}

// runProd boots a two-machine cluster — a load generator and one
// multi-core production redis server — and drives the pipelined benchmark:
// cloned workers behind per-worker rings, the chosen keyspace regime, and
// AOF persistence through the chosen page-cache regime. After the run the
// server replays the log into a fresh store; a replay digest that differs
// from the live keyspace is a persistence bug and exits non-zero, which is
// what CI's recovery smoke gates on.
func runProd(kind redisapp.KeyspaceKind, regime vfs.Regime, cores, requests int) error {
	if cores < 1 {
		return fmt.Errorf("prod server needs at least one core per node")
	}
	cfgs := []machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
			Cores: cores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		return err
	}
	p := redisapp.TrafficParams{
		Requests: requests, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1200, SetEvery: 5, Seed: 7,
	}
	fmt.Printf("prod server: %s keyspace, %s AOF regime, %d cores/node (%d workers)\n",
		kind, regime, cores, 2*cores)
	fmt.Printf("traffic: %d zipf(%.1f) requests, %d clients, %dB values, SET every %d\n\n",
		p.Requests, p.ZipfS, p.Clients, p.PayloadBytes, p.SetEvery)
	r, err := redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: kind, Cores: cores})
	if err != nil {
		return err
	}
	t := r.Traffic
	fmt.Printf("done: %d/%d requests, %d misses, digest %016x\n", t.Done, t.Sent, t.Misses, t.Digest)
	fmt.Printf("latency: p50=%d p99=%d cycles | span %d cycles\n\n", t.P50, t.P99, t.Elapsed)
	st := r.PerServer[0]
	fmt.Printf("server: served %d (%d misses) across %d workers in %d cycles\n",
		st.Served, st.Misses, st.Workers, st.ServeCycles)
	for w, ws := range st.PerWorker {
		fmt.Printf("worker %d: %d ops, %d misses, %d futex waits, %d fsync batches, %d AOF records/%d B\n",
			w, ws.Ops, ws.Misses, ws.FutexWaits, ws.FsyncBatches, ws.AOFRecords, ws.AOFBytes)
	}
	fs := cl.Machines[1].FileStats()
	fmt.Printf("\naof: %d records replayed, %d B on disk, %d+%d fsyncs, %d msg cycles\n",
		st.AOFRecords, st.AOFFileBytes, fs.Syncs[0], fs.Syncs[1], int64(fs.TotalMsgCycles()))
	fmt.Printf("recovery: live digest %016x, replay digest %016x\n", st.LiveDigest, st.ReplayDigest)
	if st.ReplayDigest != st.LiveDigest {
		return fmt.Errorf("AOF replay digest %016x does not match live keyspace %016x — the log lost a mutation",
			st.ReplayDigest, st.LiveDigest)
	}
	fmt.Println("recovery: replay matches live keyspace")
	return nil
}
