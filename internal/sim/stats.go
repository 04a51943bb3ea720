package sim

// EngineStats counts how Run spent its grants. All counters are host-side
// observability state: simulated code never reads them, so collecting them
// cannot perturb the schedule. They are deterministic — every segment
// boundary is a pure function of simulated clocks — but they describe the
// driver, not the simulated system, so they never leak into experiment
// Metrics() or rendered output.
type EngineStats struct {
	// SerialSegments counts segments granted: one per resume, plus one per
	// self-continue.
	SerialSegments int64
	// SelfContinues counts the segments Run never switched for: the
	// yielding thread was still the minimum (clock, ID) runnable thread and
	// kept the token. Handoffs() − SelfContinues is the number of coroutine
	// switches actually paid.
	SelfContinues int64
	// SerialCycles attributes simulated cycles advanced to the segments they
	// were advanced in.
	SerialCycles Cycles

	// Always zero: bench/ still reads these five.
	SoloSegments, DomainSegments, Phases int64
	SoloCycles, DomainCycles             Cycles
}

// Handoffs returns the total segments granted. Each costs one coroutine
// switch into the thread and one back, except the SelfContinues, which cost
// neither.
func (s EngineStats) Handoffs() int64 { return s.SerialSegments }

// Add accumulates o into s (cluster experiments aggregate one engine per
// cell into a per-row total).
func (s *EngineStats) Add(o EngineStats) {
	s.SerialSegments += o.SerialSegments
	s.SelfContinues += o.SelfContinues
	s.SerialCycles += o.SerialCycles
}

// Map flattens the counters for machine-readable export (stramash-bench
// -json writes keys in sorted order).
func (s EngineStats) Map() map[string]int64 {
	return map[string]int64{
		"serial_segments": s.SerialSegments,
		"self_continues":  s.SelfContinues,
		"serial_cycles":   int64(s.SerialCycles),
		"handoffs":        s.Handoffs(),
	}
}
