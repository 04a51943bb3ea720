package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		deviations int
		err        error
		want       int
	}{
		{0, nil, 0},
		{2, nil, 3},
		{0, errors.New("boom"), 1},
		{2, errors.New("boom"), 1}, // an error outranks deviations
	}
	for _, c := range cases {
		if got := ExitCode(c.deviations, c.err); got != c.want {
			t.Errorf("ExitCode(%d, %v) = %d, want %d", c.deviations, c.err, got, c.want)
		}
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatalf("Scale strings: %q, %q", Quick.String(), Full.String())
	}
}

// metricResult is a fake result that exports metrics.
type metricResult struct {
	fakeResult
	metrics map[string]int64
}

func (m metricResult) Metrics() map[string]int64 { return m.metrics }

func jsonOutcomes() []Outcome {
	return []Outcome{
		{
			Spec:   Spec{ID: "with-metrics"},
			Result: metricResult{fakeResult{name: "With Metrics"}, map[string]int64{"cycles/IS": 123, "cycles/CG": 456}},
			Wall:   10 * time.Millisecond,
		},
		{
			Spec:   Spec{ID: "plain"},
			Result: fakeResult{name: "Plain", shape: []string{"claim violated"}},
			Shape:  []string{"claim violated"},
			Wall:   5 * time.Millisecond,
		},
		{
			Spec: Spec{ID: "broken"},
			Err:  errors.New("boom"),
		},
	}
}

// TestBuildJSONReport checks the -json document: metrics flow through when
// a result exports them, deviations and errors are recorded, and errored
// outcomes are present (unlike the text Report, which stops at the error).
func TestBuildJSONReport(t *testing.T) {
	rep := BuildJSONReport(Quick, jsonOutcomes(), 20*time.Millisecond)
	if rep.Scale != "quick" {
		t.Errorf("scale %q", rep.Scale)
	}
	if len(rep.Experiments) != 3 {
		t.Fatalf("got %d experiments, want 3 (errored runs must be included)", len(rep.Experiments))
	}
	if got := rep.Experiments[0].Metrics["cycles/IS"]; got != 123 {
		t.Errorf("cycles/IS = %d, want 123", got)
	}
	if rep.Experiments[1].Metrics != nil {
		t.Errorf("plain result grew metrics: %v", rep.Experiments[1].Metrics)
	}
	if len(rep.Experiments[1].ShapeDeviations) != 1 {
		t.Errorf("shape deviations not recorded: %+v", rep.Experiments[1])
	}
	if rep.Experiments[2].Error == "" {
		t.Error("errored outcome lost its error string")
	}
	if rep.Summary.Specs != 3 || rep.Summary.Errors != 1 || rep.Summary.Deviations != 1 {
		t.Errorf("summary %+v", rep.Summary)
	}
	if rep.Summary.WallMS != 20 {
		t.Errorf("wall %v ms, want 20", rep.Summary.WallMS)
	}
}

// TestJSONCarriesServingCounters runs the production-redis and tenants
// extras through the pool and checks that, with no option set, the -json
// document carries per-worker and per-tenant counters in metrics and the
// engine's driver counters in engine_stats.
func TestJSONCarriesServingCounters(t *testing.T) {
	var specs []Spec
	for _, id := range []string{"redisprod", "tenants"} {
		s, ok := Find(id)
		if !ok {
			t.Fatalf("missing spec %s", id)
		}
		specs = append(specs, s)
	}
	rep := BuildJSONReport(Quick, RunPool(specs, Quick, 2), 0)
	hasPrefix := func(m map[string]int64, prefix string) bool {
		for k := range m {
			if strings.HasPrefix(k, prefix) {
				return true
			}
		}
		return false
	}
	rp, ten := rep.Experiments[0], rep.Experiments[1]
	if rp.Error != "" || ten.Error != "" {
		t.Fatalf("errors: %q, %q", rp.Error, ten.Error)
	}
	for _, prefix := range []string{"worker_ops/", "futex_waits/", "aof_fsync_batches/"} {
		if !hasPrefix(rp.Metrics, prefix) {
			t.Errorf("redisprod metrics carry no %s counters", prefix)
		}
	}
	if rp.EngineStats["handoffs/sharded/fused/2c"] == 0 {
		t.Errorf("redisprod engine_stats missing handoffs/sharded/fused/2c: %v", rp.EngineStats)
	}
	for _, prefix := range []string{"caps_checked/", "denials/", "quota_hits/"} {
		if !hasPrefix(ten.Metrics, prefix) {
			t.Errorf("tenants metrics carry no %s counters", prefix)
		}
	}
}

// TestWriteJSONDeterministic checks the file is valid JSON and that two
// renders of the same outcomes are byte-identical (map keys sort).
func TestWriteJSONDeterministic(t *testing.T) {
	rep := BuildJSONReport(Full, jsonOutcomes(), 20*time.Millisecond)
	var a, b bytes.Buffer
	if err := WriteJSON(&a, rep); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same report differ")
	}
	var parsed map[string]any
	if err := json.Unmarshal(a.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if _, ok := parsed["experiments"]; !ok {
		t.Error("no experiments key in JSON output")
	}
}

// TestAllResultsExportMetrics pins every registered experiment's result
// type to the CycleMetrics surface, so -json never silently loses an
// experiment's numbers. (Uses zero-value results; Metrics must not panic
// on empty rows.)
func TestAllResultsExportMetrics(t *testing.T) {
	results := []Result{
		&Table2Result{}, &IPIResult{}, &ICountResult{}, &CacheValResult{},
		&Table3Result{}, &Table4Result{}, &Figure9Result{}, &Figure10Result{},
		&Figure11Result{}, &Figure12Result{}, &Figure13Result{}, &Figure14Result{},
		&RemoteAllocResult{}, &IPISensitivityResult{},
	}
	for _, r := range results {
		cm, ok := r.(CycleMetrics)
		if !ok {
			t.Errorf("%T does not implement CycleMetrics", r)
			continue
		}
		_ = cm.Metrics()
	}
}
