package main

import (
	"flag"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
)

// clusterCmd defines the cluster subcommand.
func clusterCmd(fs *flag.FlagSet) func() {
	pers := personalityFlags(fs)
	servers := fs.Int("servers", 2, "redis server machines behind the load balancer")
	requests := requestsFlag(fs)
	return func() {
		osKind, model := pers.parse()
		fatal(runCluster(osKind, model, *servers, *requests))
	}
}

// runCluster boots a (servers+1)-machine cluster — machine 0 is the load
// balancer, the rest are redis servers — and drives the open-loop socket
// benchmark under the chosen personality, printing client-observed
// latency, per-server accounting, and every NIC's device counters.
func runCluster(os machine.OSKind, model mem.Model, servers, requests int) error {
	if servers < 1 {
		return fmt.Errorf("cluster needs at least one server machine")
	}
	cfgs := make([]machine.Config, servers+1)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: model, OS: os}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		return err
	}
	p := redisapp.TrafficParams{
		Requests: requests, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1000, SetEvery: 10, Seed: 7,
	}
	fmt.Printf("cluster: %d server machine(s) + 1 load balancer on %v / %v\n", servers, os, model)
	fmt.Printf("traffic: %d zipf(%.1f) requests, %d clients, %dB values, gap %d cyc\n\n",
		p.Requests, p.ZipfS, p.Clients, p.PayloadBytes, int64(p.InterArrival))
	r, err := redisapp.ClusterBench(cl, p)
	if err != nil {
		return err
	}
	t := r.Traffic
	fmt.Printf("done: %d/%d requests, %d misses, digest %016x\n", t.Done, t.Sent, t.Misses, t.Digest)
	fmt.Printf("latency: p50=%d p99=%d cycles | span %d cycles\n\n", t.P50, t.P99, t.Elapsed)
	for s, st := range r.PerServer {
		fmt.Printf("server %d: served %d (%d misses) in %d cycles\n",
			s+1, st.Served, st.Misses, st.ServeCycles)
	}
	fmt.Println()
	for m := range cl.Machines {
		ns := cl.NICStats(m)
		role := "server"
		if m == 0 {
			role = "loadgen"
		}
		fmt.Printf("nic m%d (%s): tx %d frames/%d B, rx %d frames/%d B, doorbells %d, retx %d, rx occ hw %d\n",
			m, role, ns.TxFrames, ns.TxBytes, ns.RxFrames, ns.RxBytes,
			ns.Doorbells, ns.Retransmits, ns.RxOccHW)
	}
	return nil
}
