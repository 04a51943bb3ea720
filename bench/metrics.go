package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one metric of the ledger. The tables below are the
// single source of the names, units, directions and bounds: BENCHMARK.json
// is their rendering (bench -manifest; the smoke test holds the file to
// it), the run prints them, and -compare applies the bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics have none.
	Bound float64
	// Exact marks simulated numbers: they repeat bit-for-bit on one
	// commit, so -compare grants them no spread allowance.
	Exact bool
	// Info marks a number -compare shows but does not judge.
	Info bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator sees, on both clocks. Every
// workload reports every one (see README for the per-workload reading).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_vs_ref", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "sim_cycles", Unit: "cycles", Better: lower, Bound: 0.005, Exact: true},
	{Name: "sim_p50_cycles", Unit: "cycles", Better: lower, Bound: 0.005, Exact: true},
	{Name: "sim_p99_cycles", Unit: "cycles", Better: lower, Bound: 0.005, Exact: true},
	{Name: "sim_req_per_mcycle", Unit: "req/Mcycle", Better: higher, Bound: 0.005, Exact: true},
	{Name: "fused_speedup", Unit: "ratio", Better: higher, Bound: 0.005, Exact: true},
	{Name: "host_alloc_mb", Unit: "MB", Better: lower, Bound: 0.03},
	{Name: "host_peak_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

// ungated metrics are printed by every end-to-end run, stored in the
// ledger and shown by -compare, but kept out of BENCHMARK.json. Raw wall_s
// moved by 28 % between two runs of one commit on the reference host
// (README, "Host noise"), more than any bound the driver accepts, so it is
// information only. failed_share reads 0, which the driver forbids (it
// takes attempted and failed from the result line instead).
var ungated = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Info: true},
	{Name: "failed_share", Unit: "ratio", Better: lower, Exact: true},
}

// perLayer lists the single-layer metrics as <package>.<name>. The first
// group of each package comes from the layer sweep (fixed-iteration loops
// over exported entry points: _ns host ns per call, _allocs heap objects
// per call, _cycles simulated cycles per call); the second from the traced
// repetition of the selected workload (exported Stats and folded trace).
var perLayer = layerDefs(`
sim.advance_yield_ns ns lower
sim.handoff_ns ns lower
sim.block_wake_ns ns lower
sim.spawn_ns ns lower
sim.serial_cycle_share ratio lower
sim.handoffs count lower
sim.phases count higher

mem.rw_ns ns lower
mem.rw_strided_ns ns lower
mem.copy_page_ns ns lower
mem.rw_allocs count lower

cache.l1hit_ns ns lower
cache.miss_ns ns lower
cache.snoop_ns ns lower
cache.l1hit_allocs count lower
cache.miss_allocs count lower
cache.snoop_allocs count lower
cache.accesses count lower
cache.l1d_hit_ratio ratio higher
cache.l3_miss_ratio ratio lower
cache.snoops count lower
cache.remote_mem_hits count lower

pgtable.walk_x86_ns ns lower
pgtable.walk_arm_ns ns lower
pgtable.map_ns ns lower
pgtable.convert_leaf_ns ns lower

kernel.load_hit_ns ns lower
kernel.store_hit_ns ns lower
kernel.load_hit_allocs count lower
kernel.fault_anon_ns ns lower
kernel.futex_pingpong_ns ns lower
kernel.clone_join_ns ns lower
kernel.faults count lower
kernel.tlb_miss_ratio ratio lower
kernel.futex_waits count lower

interconnect.ring_sendrecv_ns ns lower
interconnect.rpc_ns ns lower
interconnect.messages count lower

popcorn.remote_fault_ns ns lower
popcorn.remote_fault_cycles cycles lower
popcorn.futex_loop_ns ns lower
stramash.remote_fault_ns ns lower
stramash.remote_fault_cycles cycles lower
stramash.migrate_roundtrip_ns ns lower
stramash.migrate_roundtrip_cycles cycles lower
popcorn.page_replications count lower
popcorn.dsm_invalidations count lower
stramash.remote_pt_writes count lower
stramash.origin_handled count lower

net.frame_codec_ns ns lower
net.frame_codec_allocs count lower
net.echo_roundtrip_ns ns lower
net.echo_roundtrip_cycles cycles lower
net.tx_frames count lower
net.retransmits count lower
net.rx_highwater count lower

vfs.walk_ns ns lower
vfs.read_hit_ns ns lower
vfs.read_miss_ns ns lower
vfs.write_hit_ns ns lower
vfs.append_sync_ns ns lower
vfs.popcorn_read_miss_ns ns lower
vfs.popcorn_append_sync_ns ns lower
vfs.hits count higher
vfs.misses count lower
vfs.writebacks count lower
vfs.invalidations count lower
vfs.syncs count lower
vfs.msg_cycles cycles lower

redisapp.store_get_ns ns lower
redisapp.store_set_ns ns lower
redisapp.recover_ns_per_record ns lower
redisapp.serve_cycles cycles lower
redisapp.aof_records count lower
redisapp.fsync_batches count lower
redisapp.futex_waits count lower
redisapp.worker_ops_max_over_mean ratio lower

cap.check_ns ns lower
cap.check_allocs count lower
cap.check_denied_ns ns lower
cap.revoke_ns ns lower
cap.syscall_gate_ns ns lower

trace.emit_ns ns lower
trace.overhead_ratio ratio lower
trace.fault_cycle_share ratio lower
trace.messaging_cycle_share ratio lower
trace.sync_cycle_share ratio lower
trace.coherence_cycle_share ratio lower
trace.memory_cycle_share ratio lower
trace.compute_cycle_share ratio higher

machine.new_ns ns lower
machine.new_cluster5_ns ns lower
machine.sim_mcycles_per_s Mcycles/s higher
machine.sim_minstr_per_s Minstr/s higher
machine.host_ns_per_access ns lower
machine.wall_s s lower
machine.cpu_s s lower
machine.gc_cycles count lower
bench.build_self_s s lower
bench.run_self_s s lower
bench.verify_self_s s lower
`)

func layerDefs(table string) []metricDef {
	var defs []metricDef
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 {
			defs = append(defs, metricDef{Name: f[0], Unit: f[1], Better: f[2]})
		}
	}
	return defs
}

// runSeconds is how long one run measures when -seconds is not given, and
// the run_seconds the driver passes.
const runSeconds = 12

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadNames {
		w, _ := buildWorkload(name, fullSizes, defaultTrafficSeed)
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(m, "", "  ") // plain structs of strings and numbers cannot fail to marshal
	return append(b, '\n')
}
