package sim

import (
	"fmt"
	"sync"
)

// This file is the epoch-barriered conservative-parallel driver. It is the
// second driver behind the same Engine/Thread interface as Run (the
// sequential driver); a simulation built once can be driven by either, and
// the two must produce byte-identical results.
//
// The model: every thread belongs to a clock domain (a simulated node, or
// GlobalDomain). Domain-private state — a node's private caches, its
// directory shard, per-task TLBs, per-core run queues, a claimed network
// stack's connection tables — may be touched while a thread holds only its
// domain token. Everything else (coherence across nodes, messaging rings,
// NIC rings and the switch fabric, IPIs, the VFS, kernel allocators) is a
// cross-domain effect and must run under the single global token, which
// threads obtain by parking at a CrossDomain call.
//
// One epoch proceeds in two alternating phases:
//
//   - Domain phase: every domain with runnable threads below the epoch
//     horizon runs on its own host goroutine. Within a domain, threads run
//     one at a time in (clock, ID) order — the sequential engine's order
//     projected onto the domain. A domain stops when it has no runnable
//     thread below the horizon, or the instant one of its threads parks at
//     a cross-domain effect point (running a later sibling past a parked
//     earlier segment would reorder the domain's own sub-schedule).
//
//   - Serial phase: after all domains quiesce, parked continuations are
//     granted the global token one at a time in segment-key order — the
//     key is the thread's clock when its segment was granted, which is
//     exactly the order the sequential driver starts segments in. A
//     granted continuation runs until its next yield point, then the
//     domain phase reopens.
//
// Serial-section narrowing: when at most one domain has runnable work and
// nothing needs the global token, a domain phase would run exactly one
// domain — all the phase machinery (goroutine hand-offs, CrossDomain
// parks, re-grants) buys nothing. The driver instead grants those threads
// serially, in the same (clock, ID) order the phase would have used. Both
// execution modes independently reproduce the sequential schedule, so
// switching between them at segment granularity is sound; the switch
// condition is a pure function of thread states and simulated clocks,
// never of host scheduling.
//
// Epoch boundaries are pure functions of simulated clocks (never host
// scheduling), so the same simulation reaches the same boundaries every
// run at every GOMAXPROCS. Determinism of the whole scheme additionally
// rests on the instrumentation contract — domain-phase execution touches
// only domain-private state, everything else parks first — which
// DESIGN.md §10 states precisely and the differential battery enforces.

// DefaultEpoch is the default epoch length in cycles. A multiple of the
// scheduling quantum keeps domain-phase segments from being cut short.
const DefaultEpoch Cycles = 100_000

// RunParallel drives the simulation to completion with the epoch-barriered
// parallel driver. An epoch length <= 0 selects DefaultEpoch. When a
// tracer is installed the sequential driver is used instead: trace byte
// streams are defined by the sequential schedule, and observation must not
// change what is observed.
func (e *Engine) RunParallel(epoch Cycles) error {
	if e.Tracer != nil {
		return e.Run()
	}
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	if e.running {
		return fmt.Errorf("sim: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()

	var epochEnd Cycles
	for {
		// One pass over the threads computes everything admission needs:
		// the minimum parked continuation, the minimum runnable thread,
		// whether any runnable thread requires the global token, and how
		// many distinct domains have runnable domain-phase work.
		var parked, next *Thread
		serialNeed := false
		domains, firstDomain := 0, 0
		for _, t := range e.threads {
			if t.parked {
				if parked == nil || t.segKey < parked.segKey ||
					(t.segKey == parked.segKey && t.ID < parked.ID) {
					parked = t
				}
				continue
			}
			if t.state != stateRunnable {
				continue
			}
			if next == nil || t.now < next.now || (t.now == next.now && t.ID < next.ID) {
				next = t
			}
			if t.domain == GlobalDomain || t.serialDepth > 0 {
				serialNeed = true
			} else if domains == 0 {
				domains, firstDomain = 1, t.domain
			} else if t.domain != firstDomain {
				domains = 2 // "more than one" is all admission needs
			}
		}
		if parked == nil && next == nil {
			if e.allDone() {
				return e.firstErr()
			}
			return e.deadlockErr()
		}

		// Serial admission: parked continuations, every segment while a
		// thread needing the global token is runnable (its segment may touch
		// anything, so nothing may run concurrently with it, and segments
		// around it must keep their sequential order) — and, as the narrow
		// fast path, every segment while at most one domain is active.
		if parked != nil || serialNeed || domains <= 1 {
			t := parked
			if t == nil || (next != nil && (next.now < t.segKey ||
				(next.now == t.segKey && next.ID < t.ID))) {
				t = next
			}
			solo := parked == nil && !serialNeed
			c0 := t.now
			e.grantSerial(t)
			if solo {
				e.Stats.SoloSegments++
				e.Stats.SoloCycles += t.now - c0
			} else {
				e.Stats.SerialSegments++
				e.Stats.SerialCycles += t.now - c0
			}
			if t.err != nil {
				return t.err
			}
			continue
		}

		// Domain phase. Advance the horizon so it covers the earliest
		// runnable thread (a function of simulated clocks only).
		if next.now >= epochEnd {
			epochEnd = next.now + epoch
		}
		if errT := e.runDomainPhase(epochEnd); errT != nil {
			return errT.err
		}
	}
}

// grantSerial hands t the global execution token for one segment: from its
// current position (a yield point, or a parked CrossDomain call) to its
// next yield point, block, park or exit.
func (e *Engine) grantSerial(t *Thread) {
	t.local = false
	if !t.parked {
		t.segKey = t.now
	}
	t.resume()
}

// domainRun is one domain's accounting for one domain phase.
type domainRun struct {
	failed *Thread
	segs   int64
	cycles Cycles
	parked bool
}

// runDomainPhase runs every domain with admissible work on its own host
// goroutine and waits for all of them to quiesce; a phase with exactly one
// admissible domain runs inline on the driver goroutine (cheap, and common
// when domains' clocks are skewed across the horizon). It returns the
// failed thread if any thread errored, preferring the lowest thread ID so
// the returned error does not depend on host scheduling.
func (e *Engine) runDomainPhase(epochEnd Cycles) *Thread {
	e.phaseDomains = e.phaseDomains[:0]
	for _, t := range e.threads {
		if t.domain == GlobalDomain || t.serialDepth > 0 ||
			t.state != stateRunnable || t.now >= epochEnd {
			continue
		}
		seen := false
		for _, d := range e.phaseDomains {
			if d == t.domain {
				seen = true
				break
			}
		}
		if !seen {
			e.phaseDomains = append(e.phaseDomains, t.domain)
		}
	}
	e.Stats.Phases++
	e.Stats.PhaseDomains += int64(len(e.phaseDomains))
	if w := int64(len(e.phaseDomains)); w > e.Stats.MaxPhaseWidth {
		e.Stats.MaxPhaseWidth = w
	}
	var runs []domainRun
	if len(e.phaseDomains) == 1 {
		runs = []domainRun{e.runDomain(e.phaseDomains[0], epochEnd)}
	} else {
		runs = make([]domainRun, len(e.phaseDomains))
		var wg sync.WaitGroup
		for i, d := range e.phaseDomains {
			wg.Add(1)
			go func(i, d int) {
				defer wg.Done()
				runs[i] = e.runDomain(d, epochEnd)
			}(i, d)
		}
		wg.Wait()
	}
	var failed *Thread
	for _, r := range runs {
		e.Stats.DomainSegments += r.segs
		e.Stats.DomainCycles += r.cycles
		if r.parked {
			e.Stats.Parks++
		}
		if r.failed != nil && (failed == nil || r.failed.ID < failed.ID) {
			failed = r.failed
		}
	}
	return failed
}

// runDomain is one domain's scheduler for one domain phase: it repeatedly
// grants the domain's runnable thread with the smallest (clock, ID) below
// the horizon, and stops at quiesce or the moment a thread parks.
func (e *Engine) runDomain(d int, epochEnd Cycles) (r domainRun) {
	for {
		var best *Thread
		for _, t := range e.threads {
			if t.domain != d || t.state != stateRunnable || t.now >= epochEnd || t.serialDepth > 0 {
				continue
			}
			if best == nil || t.now < best.now || (t.now == best.now && t.ID < best.ID) {
				best = t
			}
		}
		if best == nil {
			return r
		}
		best.local = true
		best.segKey = best.now
		c0 := best.now
		best.resume()
		best.local = false
		r.segs++
		r.cycles += best.now - c0
		if best.err != nil {
			r.failed = best
			return r
		}
		if best.parked {
			// The domain freezes behind its parked segment; the serial
			// phase will continue it in key order.
			r.parked = true
			return r
		}
	}
}
