package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/npb"
)

// fakeResult is a minimal Result for pool-mechanics tests.
type fakeResult struct {
	name  string
	body  string
	shape []string
}

func (f fakeResult) Name() string          { return f.name }
func (f fakeResult) Render() string        { return f.body }
func (f fakeResult) ShapeErrors() []string { return f.shape }

// goldenSpecs is the representative subset the determinism suite runs: it
// covers the validation experiments (pure model), an NPB comparison run
// (both OS personalities, migration, DSM), and an ablation (global
// allocator), without costing the full suite's runtime.
func goldenSpecs(t testing.TB) []Spec {
	ids := []string{"table2", "fig5-6-small", "fig8", "table3", "ablation-ipi"}
	specs := make([]Spec, 0, len(ids))
	for _, id := range ids {
		s, ok := Find(id)
		if !ok {
			t.Fatalf("missing golden spec %s", id)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestGoldenDeterminism is the harness that makes the parallel rewrite
// safe: the golden subset runs twice sequentially and once under the
// parallel pool, and every rendering (which embeds the simulated cycle
// counts) must be byte-identical across all three runs.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	specs := goldenSpecs(t)

	report := func(outcomes []Outcome) string {
		var buf bytes.Buffer
		if _, err := Report(&buf, outcomes); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	seq1 := RunPool(specs, Quick, 1)
	seq2 := RunPool(specs, Quick, 1)
	par := RunPool(specs, Quick, len(specs))

	for i := range specs {
		r1, r2, rp := seq1[i].Result.Render(), seq2[i].Result.Render(), par[i].Result.Render()
		if r1 != r2 {
			t.Errorf("%s: two sequential runs render differently:\n--- run1\n%s\n--- run2\n%s", specs[i].ID, r1, r2)
		}
		if r1 != rp {
			t.Errorf("%s: parallel run renders differently from sequential:\n--- seq\n%s\n--- par\n%s", specs[i].ID, r1, rp)
		}
	}
	if a, b := report(seq1), report(par); a != b {
		t.Errorf("full report differs between sequential and parallel runs")
	}

	// The pooled report must also be byte-identical to one spec at a
	// time through a width-1 pool, the sequential reference.
	var legacy bytes.Buffer
	for _, s := range specs {
		if _, err := Report(&legacy, RunPool([]Spec{s}, Quick, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if legacy.String() != report(par) {
		t.Errorf("pooled report differs from sequential one-spec-at-a-time report")
	}
}

// TestCycleCountDeterminism asserts the strongest form of the guarantee at
// the machine level: two identical runs on freshly built machines retire
// the exact same simulated cycle count.
func TestCycleCountDeterminism(t *testing.T) {
	run := func() int64 {
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
		if err != nil {
			t.Fatal(err)
		}
		cycles, _, err := runBenchmark(m, "IS", npb.ClassT, true)
		if err != nil {
			t.Fatal(err)
		}
		return int64(cycles)
	}
	c1, c2 := run(), run()
	if c1 != c2 {
		t.Errorf("identical runs retired different cycle counts: %d vs %d", c1, c2)
	}
	if c1 == 0 {
		t.Error("run retired zero cycles")
	}
}

func TestPoolPreservesSpecOrder(t *testing.T) {
	// The first spec finishes last; outcomes and the report must still be
	// in spec order.
	var specs []Spec
	for i := 0; i < 4; i++ {
		i := i
		specs = append(specs, Spec{
			ID: fmt.Sprintf("spec%d", i),
			Run: func(Scale, int) (Result, error) {
				if i == 0 {
					time.Sleep(100 * time.Millisecond)
				}
				return fakeResult{name: fmt.Sprintf("Spec %d", i), body: fmt.Sprintf("row %d\n", i)}, nil
			},
		})
	}
	outcomes := RunPool(specs, Quick, 4)
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("spec%d: %v", i, o.Err)
		}
		if want := fmt.Sprintf("Spec %d", i); o.Result.Name() != want {
			t.Errorf("outcome %d holds %q, want %q", i, o.Result.Name(), want)
		}
	}
	var buf bytes.Buffer
	if _, err := Report(&buf, outcomes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "Spec 0") > strings.Index(out, "Spec 3") {
		t.Errorf("report not in spec order:\n%s", out)
	}
}

func TestPoolBoundedConcurrency(t *testing.T) {
	const workers = 2
	var cur, max atomic.Int32
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, Spec{
			ID: fmt.Sprintf("spec%d", i),
			Run: func(Scale, int) (Result, error) {
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				cur.Add(-1)
				return fakeResult{name: "x"}, nil
			},
		})
	}
	RunPool(specs, Quick, workers)
	if got := max.Load(); got > workers {
		t.Errorf("observed %d concurrent specs, pool bound is %d", got, workers)
	}
}

// TestPoolRowWidth checks the row width RunPool hands each spec: the host
// width split across the specs in flight, never below 1.
func TestPoolRowWidth(t *testing.T) {
	for _, c := range []struct {
		specs, parallelism, want int
	}{
		{1, 4, 4},
		{2, 4, 2},
		{3, 4, 1},
		{16, 4, 1},
		{16, 1, 1},
	} {
		var got atomic.Int32
		specs := make([]Spec, c.specs)
		for i := range specs {
			specs[i] = Spec{ID: fmt.Sprintf("spec%d", i), Run: func(_ Scale, rows int) (Result, error) {
				if old := got.Swap(int32(rows)); old != 0 && old != int32(rows) {
					t.Errorf("specs handed different widths %d and %d", old, rows)
				}
				return fakeResult{name: "x"}, nil
			}}
		}
		RunPool(specs, Quick, c.parallelism)
		if g := int(got.Load()); g != c.want {
			t.Errorf("%d specs at Parallelism %d: row width %d, want %d", c.specs, c.parallelism, g, c.want)
		}
	}
}

func TestPoolPanicRecovery(t *testing.T) {
	specs := []Spec{
		{ID: "ok1", Run: func(Scale, int) (Result, error) { return fakeResult{name: "ok1"}, nil }},
		{ID: "boom", Run: func(Scale, int) (Result, error) { panic("simulated machine wedged") }},
		{ID: "ok2", Run: func(Scale, int) (Result, error) { return fakeResult{name: "ok2"}, nil }},
	}
	outcomes := RunPool(specs, Quick, 2)
	if outcomes[0].Err != nil || outcomes[2].Err != nil {
		t.Errorf("healthy specs failed: %v / %v", outcomes[0].Err, outcomes[2].Err)
	}
	if outcomes[1].Err == nil || !strings.Contains(outcomes[1].Err.Error(), "panic") {
		t.Errorf("panicking spec error = %v, want panic report", outcomes[1].Err)
	}
	if !strings.Contains(outcomes[1].Err.Error(), "boom") {
		t.Errorf("panic error does not name the spec: %v", outcomes[1].Err)
	}
}

func TestReportStopsAtFirstError(t *testing.T) {
	outcomes := []Outcome{
		{Spec: Spec{ID: "a"}, Result: fakeResult{name: "A", body: "a\n", shape: []string{"dev"}}, Shape: []string{"dev"}},
		{Spec: Spec{ID: "b"}, Err: fmt.Errorf("experiments: b: broken")},
		{Spec: Spec{ID: "c"}, Result: fakeResult{name: "C", body: "c\n"}},
	}
	var buf bytes.Buffer
	dev, err := Report(&buf, outcomes)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v", err)
	}
	if dev != 1 {
		t.Errorf("deviations = %d, want 1", dev)
	}
	if strings.Contains(buf.String(), "C") {
		t.Errorf("specs after the failure were rendered:\n%s", buf.String())
	}
}

func TestSummarize(t *testing.T) {
	outcomes := []Outcome{
		{Spec: Spec{ID: "a"}, Result: fakeResult{}, Shape: []string{"d1", "d2"}, Wall: 2 * time.Second},
		{Spec: Spec{ID: "b"}, Result: fakeResult{}, Wall: time.Second},
		{Spec: Spec{ID: "c"}, Err: fmt.Errorf("x"), Wall: time.Second},
	}
	s := Summarize(outcomes, 2*time.Second)
	if s.Specs != 3 || s.Deviations != 2 || s.Errors != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.CPU != 4*time.Second || s.Wall != 2*time.Second {
		t.Errorf("times = wall %v cpu %v", s.Wall, s.CPU)
	}
	if got := s.Speedup(); got != 2 {
		t.Errorf("speedup = %v, want 2", got)
	}
	str := s.String()
	for _, want := range []string{"3 specs", "2 deviations", "wall", "cpu", "1 error(s)"} {
		if !strings.Contains(str, want) {
			t.Errorf("summary string %q missing %q", str, want)
		}
	}
}
