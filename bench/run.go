package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
)

// procStart anchors setup_s: package variables initialize before main.
var procStart = time.Now()

// repetition is one pass over a workload's cells on fresh machines.
type repetition struct {
	wall    float64 // host seconds over the cells, machine build included
	ref     float64 // mean refKernel seconds, sampled around every cell
	allocMB float64 // runtime.MemStats.TotalAlloc delta
	cpuS    float64 // process user+sys seconds
	gcs     uint32
	cells   []cellOut // by cell index, whatever order they ran in
	counts  counts    // the layers' Stats, summed over the cells
	// attr folds the cells' traces (traced repetitions only).
	attr *trace.Attribution
}

// runRep runs every cell of w in the given order. Each traced cell gets
// its own trace buffer, folded and dropped before the next cell so a
// class-W trace never has to fit in memory whole. withRef samples the
// host-speed reference around every cell (end-to-end runs only).
func runRep(w workload, order []int, traced, withRef bool, sp *spans) (repetition, error) {
	rep := repetition{cells: make([]cellOut, len(w.cells))}
	if traced {
		rep.attr = &trace.Attribution{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	for _, i := range order {
		c := w.cells[i]
		if withRef {
			rep.ref += refSample(len(order))
		}
		t0 := time.Now()
		id := sp.begin(c.name, -1)
		var tr trace.Tracer
		var buf *trace.Buffer
		if traced {
			buf = trace.NewBuffer()
			tr = buf
		}
		out, err := c.run(tr, sp, id, &rep.counts)
		sp.end(id)
		rep.wall += time.Since(t0).Seconds()
		if err != nil {
			return rep, err
		}
		if traced {
			foldAttribution(rep.attr, trace.Attribute(buf.Events))
		}
		rep.cells[i] = out
	}
	if withRef {
		rep.ref = (rep.ref + refSample(len(order))) / float64(len(order)+1)
	}
	rep.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	rep.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	rep.gcs = ms1.NumGC - ms0.NumGC
	return rep, nil
}

// refKernel is the host-speed reference: 50 000 round trips between two
// goroutines over unbuffered channels (≈ 17 ms on a quiet 2.1 GHz host),
// code that no change to this repository can touch. The host this runs on
// drifts by ±15 % over seconds (a plain CPU loop shows the same), which no
// statistic within one run removes; the reference sampled around every
// cell drifts with it, so wall ÷ ref is two to seven times steadier across
// runs than wall alone (see README, "Host noise").
func refKernel() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < 50000; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := time.Since(t0).Seconds()
	close(ping)
	<-pong // the echo goroutine has exited
	return d
}

// refSample averages enough reference bursts at one cell boundary that a
// repetition of n cells takes at least refBursts in all: a single burst
// still carries the host's millisecond-scale jitter, and a workload of
// three long cells would otherwise sample the drift four times.
func refSample(n int) float64 {
	k := (refBursts + n) / (n + 1)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += refKernel()
	}
	return sum / float64(k)
}

const refBursts = 16

func foldAttribution(dst, a *trace.Attribution) {
	for i := range dst.Spans {
		dst.Spans[i] += a.Spans[i]
		dst.Components[i] += a.Components[i]
	}
	for i := range dst.Counts {
		dst.Counts[i] += a.Counts[i]
	}
	dst.Busy += a.Busy
}

// cellOrder is the run's one seeded input on the host clock: the order a
// repetition visits its cells in. Simulated numbers cannot depend on it
// (every cell builds fresh machines); host time may, through heap and
// cache state, which is why it is varied rather than fixed.
func cellOrder(n int, seed uint64) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}

// simNumbers is everything simulated a repetition produces; on one commit
// and one traffic seed it must repeat exactly.
type simNumbers struct {
	Cycles []int64  `json:"cycles"`
	P50    []int64  `json:"p50,omitempty"`
	P99    []int64  `json:"p99,omitempty"`
	Digest []string `json:"digest,omitempty"`
}

func (r repetition) sim() simNumbers {
	var s simNumbers
	for _, c := range r.cells {
		s.Cycles = append(s.Cycles, int64(c.cycles))
		if c.traffic != nil {
			s.P50 = append(s.P50, int64(c.traffic.P50))
			s.P99 = append(s.P99, int64(c.traffic.P99))
			s.Digest = append(s.Digest, fmt.Sprintf("%016x", c.traffic.Digest))
		}
	}
	return s
}

// checks returns the repetition's correctness assertions: each cell's own
// plus, on serving workloads, identical response digests across cells.
func (r repetition) checks(w workload) []check {
	var cs []check
	same := true
	for _, c := range r.cells {
		cs = append(cs, c.checks...)
		if c.traffic != nil && c.traffic.Digest != r.cells[0].traffic.Digest {
			same = false
		}
	}
	if w.primarySat >= 0 {
		cs = append(cs, check{"identical Traffic.Digest across cells", same})
	}
	return cs
}

// nearestRank is redisapp's percentile rule, so the batch workloads'
// distribution over cells reduces exactly like a traffic result.
func nearestRank(v []int64, q float64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

// simMetrics reduces a repetition's simulated numbers to the end-to-end
// metrics. Serving workloads read the primary cells' traffic results; on
// batch workloads one cell is one operation.
func simMetrics(w workload, r repetition) map[string]float64 {
	s := r.sim()
	var total int64
	for _, c := range s.Cycles {
		total += c
	}
	m := map[string]float64{
		"sim_cycles":    float64(total),
		"fused_speedup": w.speedup(s.Cycles),
	}
	if w.primarySat >= 0 {
		sat, lo := r.cells[w.primarySat].traffic, r.cells[w.primaryLo].traffic
		m["sim_p50_cycles"] = float64(lo.P50)
		m["sim_p99_cycles"] = float64(lo.P99)
		m["sim_req_per_mcycle"] = float64(sat.Done) * 1e6 / float64(sat.Elapsed)
	} else {
		m["sim_p50_cycles"] = float64(nearestRank(s.Cycles, 0.50))
		m["sim_p99_cycles"] = float64(nearestRank(s.Cycles, 0.99))
		m["sim_req_per_mcycle"] = float64(len(s.Cycles)) * 1e6 / float64(total)
	}
	return m
}

// sample is one host metric over the timed repetitions.
type sample struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(v []float64) sample {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sample{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Samples: v}
}

// quantile interpolates linearly on a sorted slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// tally counts checks and names every failure on stderr.
type tally struct{ attempted, failed int }

func (t *tally) add(cs []check) {
	for _, c := range cs {
		t.attempted++
		if !c.ok {
			t.failed++
			fmt.Fprintf(errOut, "bench: FAILED check: %s\n", c.name)
		}
	}
}

// result is one run's record in the ledger.
type result struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"` // "e2e" or "layers"
	Env       environment        `json:"env"`
	Params    map[string]any     `json:"params"`
	Cells     []string           `json:"cells"`
	Reps      int                `json:"reps"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Host holds, per host-clock metric, the median, quartiles and raw
	// per-repetition samples behind the value in Metrics.
	Host map[string]sample `json:"host,omitempty"`
	Sim  simNumbers        `json:"sim"`
}

// minReps keeps a median meaningful when one repetition is a third of
// the measuring time.
const minReps = 3

// runEndToEnd measures one workload untraced: one warm-up repetition
// (ending set-up), then timed repetitions for about seconds.
func runEndToEnd(w workload, seed uint64, seconds float64, reps int) (result, error) {
	order := cellOrder(len(w.cells), seed)
	var tl tally
	warm, err := runRep(w, order, false, false, nil)
	if err != nil {
		return result{}, err
	}
	tl.add(warm.checks(w))
	ref := warm.sim()
	setup := time.Since(procStart).Seconds()

	var walls, rels, allocs []float64
	start := time.Now()
	for n := 0; ; n++ {
		if reps > 0 && n >= reps {
			break
		}
		if reps == 0 && n >= minReps && time.Since(start).Seconds()+walls[n-1] > seconds {
			break
		}
		rep, err := runRep(w, order, false, true, nil)
		if err != nil {
			return result{}, err
		}
		tl.add(rep.checks(w))
		tl.add([]check{{fmt.Sprintf("repetition %d repeats the warm-up's simulated numbers", n+1), equalSim(rep.sim(), ref)}})
		walls = append(walls, rep.wall)
		rels = append(rels, rep.wall/rep.ref)
		allocs = append(allocs, rep.allocMB)
	}

	res := result{Workload: w.name, Mode: "e2e", Params: w.params, Reps: len(walls), Seconds: seconds,
		Attempted: tl.attempted, Failed: tl.failed, Correct: tl.failed == 0, Sim: ref,
		Metrics: simMetrics(w, warm),
		Host:    map[string]sample{"wall_s": summarize(walls), "wall_vs_ref": summarize(rels), "host_alloc_mb": summarize(allocs)}}
	for _, c := range w.cells {
		res.Cells = append(res.Cells, c.name)
	}
	res.Metrics["setup_s"] = setup
	for name, s := range res.Host {
		res.Metrics[name] = s.Median
	}
	res.Metrics["host_peak_mb"] = peakRSSMB()
	res.Metrics["failed_share"] = float64(tl.failed) / float64(tl.attempted)
	return res, nil
}

func equalSim(a, b simNumbers) bool { return reflect.DeepEqual(a, b) }
