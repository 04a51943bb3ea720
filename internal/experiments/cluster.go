package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
)

// This file is the cluster experiment: an open-loop load balancer on one
// machine fans zipfian redis traffic into 1, 2 or 4 server machines over
// the simulated network stack — NIC descriptor rings, the TCP-lite
// transport and kernel socket syscalls — on the fused (Stramash) and
// multiple-kernel (Popcorn SHM) personalities. The network stack sits
// above the OS personality, so the served content must be byte-identical
// across every cell while latency is free to move; adding servers at a
// fixed arrival rate must relieve queueing (p99 falls from the saturated
// 1-server cell to the 4-server cell).

// clusterServers is the swept server-machine count (the cluster has one
// more machine: the load generator).
var clusterServers = []int{1, 2, 4}

// clusterOSes are the two personalities every server count runs under.
var clusterOSes = []struct {
	OS    machine.OSKind
	Model mem.Model
}{
	{machine.StramashOS, mem.Shared},
	{machine.PopcornSHM, mem.Separated},
}

// ClusterRow is one (personality, servers) measurement.
type ClusterRow struct {
	OS      machine.OSKind
	Servers int
	Traffic redisapp.TrafficResult
	// PerServer is each server task's own accounting.
	PerServer []redisapp.ProdStats
	// NIC holds every machine's device counters, generator first.
	NIC []net.NICStats
	// Engine holds the shared engine's driver counters for this cell:
	// never rendered, never in Metrics — exported only through EngineStats.
	Engine map[string]int64
}

// ClusterResult is the experiment output.
type ClusterResult struct {
	Params redisapp.TrafficParams
	Rows   []ClusterRow
}

// clusterParams returns the traffic for one scale. The inter-arrival gap
// is chosen to saturate a single server (so queueing is visible) while
// four servers run underloaded.
func clusterParams(s Scale) redisapp.TrafficParams {
	p := redisapp.TrafficParams{
		Requests: 120, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 700, SetEvery: 10, Seed: 7,
	}
	if s == Full {
		p = redisapp.TrafficParams{
			Requests: 600, Clients: 32, PayloadBytes: 1024, Keys: 64,
			ZipfS: 1.0, InterArrival: 900, SetEvery: 10, Seed: 7,
		}
	}
	return p
}

// Cluster runs the benchmark grid.
func Cluster(s Scale, rows int) (Result, error) {
	p := clusterParams(s)
	res := &ClusterResult{Params: p}
	type cell struct {
		os      machine.OSKind
		model   mem.Model
		servers int
	}
	var cells []cell
	for _, o := range clusterOSes {
		for _, n := range clusterServers {
			cells = append(cells, cell{o.OS, o.Model, n})
		}
	}
	var err error
	if res.Rows, err = forEachRow(rows, cells, func(c cell) (ClusterRow, error) {
		return clusterRun(c.os, c.model, c.servers, p)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// ClusterCell runs the grid's (personality, servers) cell at scale s — the
// same traffic, machines and counters as Cluster — as a one-row result.
func ClusterCell(os machine.OSKind, model mem.Model, servers int, s Scale) (*ClusterResult, error) {
	p := clusterParams(s)
	row, err := clusterRun(os, model, servers, p)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Params: p, Rows: []ClusterRow{row}}, nil
}

// clusterRun measures one cell: boot servers+1 machines on a shared clock
// universe and one switch, run the benchmark, and collect every layer's
// counters.
func clusterRun(os machine.OSKind, model mem.Model, servers int, p redisapp.TrafficParams) (ClusterRow, error) {
	cfgs := make([]machine.Config, servers+1)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: model, OS: os}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		return ClusterRow{}, err
	}
	r, err := redisapp.ClusterBench(cl, p)
	if err != nil {
		return ClusterRow{}, err
	}
	row := ClusterRow{OS: os, Servers: servers, Traffic: r.Traffic, PerServer: r.PerServer}
	for m := range cl.Machines {
		row.NIC = append(row.NIC, cl.NICStats(m))
	}
	row.Engine = cl.EngineStats().Map()
	return row, nil
}

// Name implements Result.
func (r *ClusterResult) Name() string {
	return "Cluster serving: socket redis over NIC rings, fused vs. Popcorn"
}

// Render implements Result.
func (r *ClusterResult) Render() string {
	tw := &tableWriter{header: []string{"os", "servers", "done", "miss", "p50 (cyc)", "p99 (cyc)", "elapsed (cyc)", "frames", "retx", "rx occ hw"}}
	for _, row := range r.Rows {
		var frames, retx int64
		for _, ns := range row.NIC {
			frames += ns.TxFrames
			retx += ns.Retransmits
		}
		tw.addRow(
			row.OS.String(),
			fmt.Sprintf("%d", row.Servers),
			fmt.Sprintf("%d", row.Traffic.Done),
			fmt.Sprintf("%d", row.Traffic.Misses),
			fmt.Sprintf("%d", int64(row.Traffic.P50)),
			fmt.Sprintf("%d", int64(row.Traffic.P99)),
			fmt.Sprintf("%d", int64(row.Traffic.Elapsed)),
			fmt.Sprintf("%d", frames),
			fmt.Sprintf("%d", retx),
			fmt.Sprintf("%d", row.NIC[0].RxOccHW),
		)
	}
	return fmt.Sprintf("%d zipf(%.1f) requests, %dB values, open-loop gap %d cyc, load balancer on machine 0\n%s",
		r.Params.Requests, r.Params.ZipfS, r.Params.PayloadBytes, int64(r.Params.InterArrival), tw.String())
}

// row looks up a (personality, servers) cell.
func (r *ClusterResult) row(os machine.OSKind, servers int) (ClusterRow, bool) {
	return find(r.Rows, func(row ClusterRow) bool { return row.OS == os && row.Servers == servers })
}

// CellErrors is the per-cell check: conservation (every request served
// once, no misses, every server busy), plausible latency order, and live
// NICs on every machine.
func (r *ClusterResult) CellErrors(row ClusterRow) []string {
	var errs []string
	label := fmt.Sprintf("%v/%dsrv", row.OS, row.Servers)
	if row.Traffic.Done != r.Params.Requests || row.Traffic.Sent != r.Params.Requests {
		errs = append(errs, fmt.Sprintf("%s: sent %d done %d, want %d",
			label, row.Traffic.Sent, row.Traffic.Done, r.Params.Requests))
	}
	if row.Traffic.Misses != 0 {
		errs = append(errs, fmt.Sprintf("%s: %d misses against a pre-populated keyspace",
			label, row.Traffic.Misses))
	}
	if row.Traffic.P50 <= 0 || row.Traffic.P99 < row.Traffic.P50 {
		errs = append(errs, fmt.Sprintf("%s: implausible percentiles p50=%d p99=%d",
			label, row.Traffic.P50, row.Traffic.P99))
	}
	served := 0
	for s, st := range row.PerServer {
		if st.Served == 0 {
			errs = append(errs, fmt.Sprintf("%s: server %d served nothing", label, s))
		}
		served += st.Served
	}
	if served != r.Params.Requests {
		errs = append(errs, fmt.Sprintf("%s: servers served %d, want %d",
			label, served, r.Params.Requests))
	}
	for m, ns := range row.NIC {
		if ns.TxFrames == 0 || ns.RxFrames == 0 {
			errs = append(errs, fmt.Sprintf("%s: machine %d NIC idle (%+v)", label, m, ns))
		}
	}
	if len(row.NIC) > 0 && row.NIC[0].RxOccHW < 1 {
		errs = append(errs, fmt.Sprintf("%s: generator RX ring never held a frame", label))
	}
	return errs
}

// ShapeErrors implements Result: every cell passes CellErrors, the
// content is byte-identical across every cell (the digest is a pure
// function of the request schedule), adding servers relieves queueing
// from 1 to 4 servers, and the fused personality beats Popcorn.
func (r *ClusterResult) ShapeErrors() []string {
	var errs []string
	var digest uint64
	var haveDigest bool
	for _, os := range clusterOSes {
		for _, n := range clusterServers {
			row, ok := r.row(os.OS, n)
			label := fmt.Sprintf("%v/%dsrv", os.OS, n)
			if !ok {
				errs = append(errs, "missing cell "+label)
				continue
			}
			errs = append(errs, r.CellErrors(row)...)
			if !haveDigest {
				digest, haveDigest = row.Traffic.Digest, true
			} else if row.Traffic.Digest != digest {
				errs = append(errs, fmt.Sprintf("%s: digest %x differs from first cell's %x — served content is not personality- and layout-independent",
					label, row.Traffic.Digest, digest))
			}
		}
	}
	// Adding servers at a fixed arrival rate must relieve the median: the
	// generator stays the bottleneck (it carries every request through the
	// switch on its own timeline), so the tail tracks the generator, but
	// service parallelism shows up at p50.
	for _, os := range clusterOSes {
		one, ok1 := r.row(os.OS, 1)
		four, ok4 := r.row(os.OS, 4)
		if ok1 && ok4 && one.Traffic.P50 <= four.Traffic.P50 {
			errs = append(errs, fmt.Sprintf("%v: p50 did not fall with more servers (1srv %d, 4srv %d) — no service-parallelism relief",
				os.OS, one.Traffic.P50, four.Traffic.P50))
		}
	}
	// The fused personality must serve faster than the multiple-kernel
	// baseline at every size: the servers populate at the origin ISA and
	// serve from the other one, which is a coherent load on Stramash and a
	// DSM round trip on Popcorn.
	for _, n := range clusterServers {
		f, okF := r.row(machine.StramashOS, n)
		p, okP := r.row(machine.PopcornSHM, n)
		if !okF || !okP {
			continue
		}
		if f.Traffic.P50 >= p.Traffic.P50 {
			errs = append(errs, fmt.Sprintf("%dsrv: fused p50 %d does not beat popcorn %d",
				n, f.Traffic.P50, p.Traffic.P50))
		}
		if f.Traffic.Elapsed >= p.Traffic.Elapsed {
			errs = append(errs, fmt.Sprintf("%dsrv: fused elapsed %d does not beat popcorn %d",
				n, f.Traffic.Elapsed, p.Traffic.Elapsed))
		}
	}
	return errs
}

// Metrics implements CycleMetrics: latency and volume per cell, plus every
// machine's NIC ring counters (occupancy high-water and retransmits
// included, for stramash-bench -json).
func (r *ClusterResult) Metrics() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		base := fmt.Sprintf("%s/%dsrv", row.OS, row.Servers)
		m["cycles/"+base] = int64(row.Traffic.Elapsed)
		m["p50/"+base] = int64(row.Traffic.P50)
		m["p99/"+base] = int64(row.Traffic.P99)
		m["done/"+base] = int64(row.Traffic.Done)
		for mi, ns := range row.NIC {
			nb := fmt.Sprintf("%s/m%d", base, mi)
			m["tx_frames/"+nb] = ns.TxFrames
			m["rx_frames/"+nb] = ns.RxFrames
			m["retransmits/"+nb] = ns.Retransmits
			m["rx_occ_hw/"+nb] = ns.RxOccHW
		}
	}
	return m
}

// EngineStats implements EngineStatsSource: per-cell driver counters,
// keyed like Metrics.
func (r *ClusterResult) EngineStats() map[string]int64 {
	m := make(map[string]int64)
	for _, row := range r.Rows {
		base := fmt.Sprintf("%s/%dsrv", row.OS, row.Servers)
		for k, v := range row.Engine {
			m[k+"/"+base] = v
		}
	}
	return m
}

// assert ClusterResult exports metrics like the other extras.
var _ CycleMetrics = (*ClusterResult)(nil)
var _ EngineStatsSource = (*ClusterResult)(nil)
