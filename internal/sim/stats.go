package sim

// EngineStats counts how a driver spent its grants. All counters are
// host-side observability state: simulated code never reads them, so
// collecting them cannot perturb the schedule. They are deterministic —
// every segment boundary is a pure function of simulated clocks — but they
// are *driver-dependent* (the sequential driver reports everything as
// serial segments and no phases), so they must never leak into experiment
// Metrics() or rendered output, which the engine-differential battery
// requires to be byte-identical across drivers.
type EngineStats struct {
	// SerialSegments counts segments granted under the global token out of
	// necessity: parked cross-domain continuations, global-domain threads,
	// and threads inside an open BeginSerial section.
	SerialSegments int64
	// SoloSegments counts segments granted serially because at most one
	// clock domain had runnable work — there was no host parallelism to
	// lose, so the driver skipped the domain-phase machinery (and its park
	// hand-offs) entirely.
	SoloSegments int64
	// DomainSegments counts segments granted inside domain-parallel phases.
	DomainSegments int64
	// Parks counts CrossDomain parks: a domain-phase thread hitting a
	// cross-domain effect point and handing off to the serial phase.
	Parks int64
	// Phases counts domain-parallel phases opened.
	Phases int64
	// PhaseDomains sums the domains run across all phases, so
	// PhaseDomains/Phases is the mean phase width (the host-parallelism
	// actually available, as opposed to configured).
	PhaseDomains int64
	// MaxPhaseWidth is the most domains ever run concurrently in one phase.
	MaxPhaseWidth int64
	// SelfContinues counts the serial segments the sequential driver never
	// switched for: the yielding thread was still the minimum (clock, ID)
	// runnable thread and kept the token. Handoffs() − SelfContinues is the
	// number of coroutine switches actually paid.
	SelfContinues int64
	// SerialCycles, SoloCycles and DomainCycles attribute simulated cycles
	// advanced to the grant kind they were advanced under. DomainCycles is
	// the work that ran (or could have run) concurrently on host cores.
	SerialCycles Cycles
	SoloCycles   Cycles
	DomainCycles Cycles
}

// Handoffs returns the total segments granted, by any driver. Each costs one
// coroutine switch into the thread and one back, except the SelfContinues,
// which cost neither.
func (s EngineStats) Handoffs() int64 {
	return s.SerialSegments + s.SoloSegments + s.DomainSegments
}

// Add accumulates o into s (cluster experiments aggregate one engine per
// cell into a per-row total).
func (s *EngineStats) Add(o EngineStats) {
	s.SerialSegments += o.SerialSegments
	s.SoloSegments += o.SoloSegments
	s.DomainSegments += o.DomainSegments
	s.SelfContinues += o.SelfContinues
	s.Parks += o.Parks
	s.Phases += o.Phases
	s.PhaseDomains += o.PhaseDomains
	if o.MaxPhaseWidth > s.MaxPhaseWidth {
		s.MaxPhaseWidth = o.MaxPhaseWidth
	}
	s.SerialCycles += o.SerialCycles
	s.SoloCycles += o.SoloCycles
	s.DomainCycles += o.DomainCycles
}

// Map flattens the counters for machine-readable export (stramash-bench
// -json writes keys in sorted order).
func (s EngineStats) Map() map[string]int64 {
	return map[string]int64{
		"serial_segments": s.SerialSegments,
		"solo_segments":   s.SoloSegments,
		"domain_segments": s.DomainSegments,
		"self_continues":  s.SelfContinues,
		"parks":           s.Parks,
		"phases":          s.Phases,
		"phase_domains":   s.PhaseDomains,
		"max_phase_width": s.MaxPhaseWidth,
		"serial_cycles":   int64(s.SerialCycles),
		"solo_cycles":     int64(s.SoloCycles),
		"domain_cycles":   int64(s.DomainCycles),
		"handoffs":        s.Handoffs(),
	}
}
