package experiments

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// Outcome records one spec's execution by the pool.
type Outcome struct {
	Spec   Spec
	Result Result // nil when Err is set
	Shape  []string
	Err    error
	// Wall is host wall-clock time spent in the spec's Run. It measures the
	// harness, not the simulation: the simulated cycle counts inside Result
	// are identical however long the host took.
	Wall time.Duration
}

// rowWidth is the row width RunPool hands each spec: the host width p
// split evenly across the specs in flight, at least 1. A full run keeps
// its rows sequential; a single spec gets all p cores.
func rowWidth(p, specs int) int {
	if specs < 1 || specs >= p {
		return 1
	}
	return p / specs
}

// RunPool runs specs at most width at a time, with any spare width going
// to each spec's rows (rowWidth). width is the host width P: zero or
// negative means runtime.GOMAXPROCS(0), and 1 runs everything in order on
// one goroutine, the sequential reference. Every spec builds its own
// machines and shares no state with the others, and a spec's panic fails
// only that spec. Outcomes are indexed exactly like specs regardless of
// completion order, which lets callers render deterministic,
// paper-ordered reports.
func RunPool(specs []Spec, scale Scale, width int) []Outcome {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	rows := rowWidth(width, len(specs))
	outcomes, _ := forEachRow(width, specs, func(s Spec) (Outcome, error) {
		return runOne(s, scale, rows), nil
	})
	return outcomes
}

// runOne runs a single spec, turning an error or a panic into a failed
// Outcome.
func runOne(spec Spec, scale Scale, rows int) (out Outcome) {
	out.Spec = spec
	start := time.Now()
	defer func() {
		out.Wall = time.Since(start)
		if r := recover(); r != nil {
			out.Err = fmt.Errorf("experiments: %s: panic: %v\n%s", spec.ID, r, debug.Stack())
		}
	}()
	res, err := spec.Run(scale, rows)
	if err != nil {
		out.Err = fmt.Errorf("experiments: %s: %w", spec.ID, err)
		return out
	}
	out.Result, out.Shape = res, res.ShapeErrors()
	return out
}

// Report renders outcomes in order and returns the total shape-deviation
// count. On the first errored outcome it stops and returns that error;
// everything rendered so far is what a width-1 run prints before failing
// on the same spec.
func Report(w io.Writer, outcomes []Outcome) (int, error) {
	deviations := 0
	for _, o := range outcomes {
		if o.Err != nil {
			return deviations, o.Err
		}
		reportResult(w, o.Result, o.Shape)
		deviations += len(o.Shape)
	}
	return deviations, nil
}

// Summary aggregates one pool run for the one-line wall/cpu report.
type Summary struct {
	Specs      int
	Errors     int
	Deviations int
	// Wall is the whole pool's wall-clock time; CPU is the sum of per-spec
	// run times. CPU/Wall is the achieved parallel speedup.
	Wall time.Duration
	CPU  time.Duration
}

// Summarize folds outcomes and the pool's wall-clock time into a Summary.
func Summarize(outcomes []Outcome, wall time.Duration) Summary {
	s := Summary{Specs: len(outcomes), Wall: wall}
	for _, o := range outcomes {
		s.CPU += o.Wall
		if o.Err != nil {
			s.Errors++
			continue
		}
		s.Deviations += len(o.Shape)
	}
	return s
}

// Speedup returns CPU/Wall, the parallel efficiency of the run.
func (s Summary) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.CPU) / float64(s.Wall)
}

func (s Summary) String() string {
	line := fmt.Sprintf("%d specs, %d deviations, wall %v cpu %v (%.2fx)",
		s.Specs, s.Deviations,
		s.Wall.Round(time.Millisecond), s.CPU.Round(time.Millisecond),
		s.Speedup())
	if s.Errors > 0 {
		line += fmt.Sprintf(", %d error(s)", s.Errors)
	}
	return line
}
