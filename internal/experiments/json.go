package experiments

import (
	"encoding/json"
	"io"
	"time"
)

// CycleMetrics is optionally implemented by experiment results that can
// export their headline numbers — simulated cycle counts and closely
// related counters — as a flat map for machine consumption. Keys are
// stable across runs; values are exact simulated quantities (cycles,
// message counts, microseconds ×1000, basis points), never host timings.
type CycleMetrics interface {
	Metrics() map[string]int64
}

// EngineStatsSource is optionally implemented by experiment results that
// can export the simulation driver's own counters (segments, hand-offs,
// segment cycles). Unlike Metrics these describe the driver, not the
// simulation: they are deterministic under the one driver, but they are
// kept out of Metrics and the rendered report, so a change to how the
// engine moves the host CPU never changes a pinned output.
type EngineStatsSource interface {
	EngineStats() map[string]int64
}

// JSONOutcome is one experiment's record in the -json report.
type JSONOutcome struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// WallMS is host wall-clock milliseconds spent running the experiment.
	// It measures the harness, not the simulation (see Outcome.Wall).
	WallMS float64 `json:"wall_ms"`
	// ShapeDeviations lists the violated shape claims (empty = reproduced).
	ShapeDeviations []string `json:"shape_deviations,omitempty"`
	Error           string   `json:"error,omitempty"`
	// Metrics holds the experiment's simulated cycle counts and counters
	// when the result type exports them (CycleMetrics).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// EngineStats holds driver counters when the result exports them
	// (EngineStatsSource).
	EngineStats map[string]int64 `json:"engine_stats,omitempty"`
}

// JSONSummary mirrors Summary in JSON form.
type JSONSummary struct {
	Specs      int     `json:"specs"`
	Errors     int     `json:"errors"`
	Deviations int     `json:"deviations"`
	WallMS     float64 `json:"wall_ms"`
	CPUMS      float64 `json:"cpu_ms"`
}

// JSONReport is the top-level document stramash-bench -json writes.
type JSONReport struct {
	Scale       string        `json:"scale"`
	Experiments []JSONOutcome `json:"experiments"`
	Summary     JSONSummary   `json:"summary"`
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BuildJSONReport converts pool outcomes into the -json document. Errored
// outcomes are included (Report stops at the first error; the JSON does
// not), so a partially failed run still records what completed.
func BuildJSONReport(scale Scale, outcomes []Outcome, wall time.Duration) JSONReport {
	rep := JSONReport{Scale: scale.String(), Experiments: make([]JSONOutcome, 0, len(outcomes))}
	sum := Summarize(outcomes, wall)
	rep.Summary = JSONSummary{
		Specs:      sum.Specs,
		Errors:     sum.Errors,
		Deviations: sum.Deviations,
		WallMS:     millis(sum.Wall),
		CPUMS:      millis(sum.CPU),
	}
	for _, o := range outcomes {
		jo := JSONOutcome{
			ID:              o.Spec.ID,
			WallMS:          millis(o.Wall),
			ShapeDeviations: o.Shape,
		}
		if o.Err != nil {
			jo.Error = o.Err.Error()
		}
		if o.Result != nil {
			jo.Name = o.Result.Name()
			if cm, ok := o.Result.(CycleMetrics); ok {
				jo.Metrics = cm.Metrics()
			}
			if es, ok := o.Result.(EngineStatsSource); ok {
				jo.EngineStats = es.EngineStats()
			}
		}
		rep.Experiments = append(rep.Experiments, jo)
	}
	return rep
}

// WriteJSON renders the document with stable field and key order (Go
// marshals maps sorted by key), so identical simulated runs produce
// byte-identical files whatever the pool parallelism.
func WriteJSON(w io.Writer, rep JSONReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ExitCode maps a run to stramash-bench's exit code: 0 when everything
// ran and every shape claim reproduced, 1 on any execution error, 3 when
// the experiments completed but shape deviations were found. CI gates on
// this.
func ExitCode(deviations int, err error) int {
	switch {
	case err != nil:
		return 1
	case deviations > 0:
		return 3
	default:
		return 0
	}
}
