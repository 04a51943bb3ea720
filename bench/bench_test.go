package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatchesTables holds BENCHMARK.json to the metric tables it
// is rendered from (regenerate with `go run ./bench -manifest`).
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -manifest > BENCHMARK.json`")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkReport verifies that report prints each of defs exactly once by
// name, and that the contract's last line holds exactly those metrics with
// finite values.
func checkReport(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	var out bytes.Buffer
	report(&out, r)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]int{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) > 0 {
			printed[f[0]]++
		}
	}
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", r.Workload, err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, last.Correct, last.Attempted, last.Failed)
	}
	if len(last.Metrics) != len(defs) {
		t.Errorf("%s: result line holds %d metrics, want %d", r.Workload, len(last.Metrics), len(defs))
	}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		}
		if printed[d.Name] != 1 {
			t.Errorf("%s: %s printed %d times, want once", r.Workload, d.Name, printed[d.Name])
		}
		m, ok := last.Metrics[d.Name]
		if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("%s: %s missing, not finite or in the wrong unit in the result line", r.Workload, d.Name)
		}
	}
}

// TestSmoke runs every workload once at a tiny size, end to end and
// through the layer sweep, so tier-1 compiles and exercises the benchmark.
func TestSmoke(t *testing.T) {
	env := environment{Seed: 3, TrafficSeed: defaultTrafficSeed}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, tinySizes, env.TrafficSeed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runEndToEnd(w, env.Seed, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
			}
		}
	}
	sp := newSpans()
	rs, err := runLayers(workloadNames, tinySizes, 500, env, sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		checkReport(t, r, perLayer)
	}
	for _, name := range []string{"cache.l1hit_allocs", "cache.miss_allocs", "cache.snoop_allocs", "mem.rw_allocs"} {
		if v := rs[0].Metrics[name]; v != 0 {
			t.Errorf("%s = %v, want 0 (guarded by in-tree zero-alloc tests)", name, v)
		}
	}
	cells := 0
	for _, s := range sp.list {
		if s.Parent < 0 {
			cells++
		} else if sp.list[s.Parent].Cell != s.Cell || s.End < s.Start {
			t.Errorf("span %d (%s) does not nest in its cell", s.ID, s.Name)
		}
	}
	if cells == 0 || len(sp.list) != 4*cells {
		t.Errorf("%d spans over %d cells, want build, run, verify under each", len(sp.list), cells)
	}
}

// TestCompare pins -compare's three verdicts and its exit codes.
func TestCompare(t *testing.T) {
	base := result{Workload: "npb-mem", Mode: "e2e", Env: environment{TrafficSeed: 7},
		Metrics: map[string]float64{"setup_s": 2, "wall_s": 2, "wall_vs_ref": 100, "sim_cycles": 1000, "sim_p50_cycles": 10, "sim_p99_cycles": 20,
			"sim_req_per_mcycle": 5, "fused_speedup": 2, "host_alloc_mb": 100, "host_peak_mb": 50},
		Host: map[string]sample{"wall_vs_ref": summarize([]float64{99, 100, 101}), "host_alloc_mb": summarize([]float64{100, 100, 100})}}
	with := func(edit func(r *result)) []result {
		r := base
		r.Metrics = map[string]float64{}
		for k, v := range base.Metrics {
			r.Metrics[k] = v
		}
		edit(&r)
		return []result{r}
	}
	cases := []struct {
		name string
		b    []result
		code int
		want string
	}{
		{"identical", with(func(*result) {}), exitOK, ""},
		{"host time 30% up", with(func(r *result) {
			r.Metrics["wall_s"], r.Metrics["wall_vs_ref"] = 2.6, 130
			r.Host = map[string]sample{"wall_vs_ref": summarize([]float64{129, 130, 131}), "host_alloc_mb": base.Host["host_alloc_mb"]}
		}), exitRegressed, "wall_vs_ref"},
		{"a simulated number moved 1%", with(func(r *result) { r.Metrics["sim_cycles"] = 1010 }), exitRegressed, "sim_cycles"},
		{"a check failed", with(func(r *result) { r.Metrics["failed_share"] = 0.1 }), exitRegressed, "failed_share"},
		{"spread wider than the bound", with(func(r *result) {
			r.Metrics["wall_vs_ref"] = 130
			r.Host = map[string]sample{"wall_vs_ref": summarize([]float64{80, 130, 180}), "host_alloc_mb": base.Host["host_alloc_mb"]}
		}), exitOK, "unresolved"},
		{"another traffic sample", with(func(r *result) { r.Env.TrafficSeed, r.Metrics["sim_cycles"] = 11, 1100 }), exitOK, "unresolved"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if code := compareRuns([]result{base}, tc.b, &out); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		found := false
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, tc.want) && (strings.HasSuffix(l, string(vRegressed)) || strings.HasSuffix(l, string(vUnresolved))) {
				found = true
			}
		}
		if tc.want != "" && !found {
			t.Errorf("%s: no regressed/unresolved line mentions %q\n%s", tc.name, tc.want, out.String())
		}
	}
}

// TestFailedCheckFailsTheRun: a failed check is counted, named on stderr
// and makes the command's exit code non-zero.
func TestFailedCheckFailsTheRun(t *testing.T) {
	var stderr bytes.Buffer
	old := errOut
	errOut = &stderr
	defer func() { errOut = old }()
	var tl tally
	tl.add([]check{{"fine", true}, {"digest mismatch", false}})
	if tl.attempted != 2 || tl.failed != 1 || !strings.Contains(stderr.String(), "digest mismatch") {
		t.Errorf("tally = %+v, stderr = %q", tl, stderr.String())
	}
}
