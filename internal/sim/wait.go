package sim

import (
	"fmt"
	"math"
	"slices"
)

// Spin is the yield-point schedule of a parked wait loop (ParkSpin), its
// yield points numbered 0, 1, 2, … from the one it parked at: the poll,
// where it has just advanced Interval cycles. Each iteration runs a probe
// of Probe cycles and then advances Interval cycles to its poll, and it
// has Points yield points:
//
//   - Points 1: the poll alone, the probe running between polls. A flag
//     spin (SpinWhile) has no probe (Probe 0); a socket probe
//     (kernel.Task.PollSock) is syscalls that contain no yield point.
//   - Points 2: the probe's close, Probe cycles after the poll before it,
//     and the poll: a CAS probe (kernel.Task.SpinCAS).
//   - Points 3: the loop top, at the clock of the poll before it, the
//     probe's close and the poll: a memory probe (kernel.Task.SpinWait).
//
// A probe charges Hits L1D hits and retires Loads loads and Instr other
// instructions, all counted at its close (with one point per iteration, at
// the next poll). Bound is the first yield point at which the loop stops
// being pure: the caller's own (math.MaxInt64: none), which ParkSpin
// lowers to the first at which the preemption hook acts.
type Spin struct {
	C0, Interval, Probe       Cycles
	Points                    int64
	Hits, Loads, Instr, Bound int64
}

// Clock returns the clock of yield point j.
func (s Spin) Clock(j int64) Cycles {
	p := s.Points
	c := s.C0 + Cycles(j/p)*(s.Probe+s.Interval)
	if p > 1 && j%p == p-1 {
		c += s.Probe
	}
	return c
}

// Probes returns the probes the loop closes from yield point 0 to yield
// point j.
func (s Spin) Probes(j int64) int64 {
	if s.Points == 1 {
		return j
	}
	return (j + 1) / s.Points
}

// Retired returns the instructions the loop retires from yield point 0 to
// yield point j: Loads+Instr per probe closed.
func (s Spin) Retired(j int64) int64 { return (s.Loads + s.Instr) * s.Probes(j) }

// L1DHits returns the L1D hits the loop charges from yield point 0 to
// yield point j: Hits per probe closed.
func (s Spin) L1DHits(j int64) int64 { return s.Hits * s.Probes(j) }

// FirstAt returns the first yield point at or after clock c.
func (s Spin) FirstAt(c Cycles) int64 {
	if c <= s.C0 {
		return 0
	}
	p, period := s.Points, s.Probe+s.Interval
	m, r := int64((c-s.C0)/period), (c-s.C0)%period
	switch {
	case r == 0:
		return p * m
	case p > 1 && r <= s.Probe:
		return p*m + p - 1
	}
	return p * (m + 1)
}

// FirstWith returns the first yield point at which the loop has retired at
// least instr instructions since yield point 0; for a loop that retires
// none (a flag spin, a CAS probe) with instr > 0 there is none, and it
// returns math.MaxInt64.
func (s Spin) FirstWith(instr int64) int64 {
	per := s.Loads + s.Instr
	switch {
	case instr <= 0:
		return 0
	case per == 0:
		return math.MaxInt64
	}
	probes := (instr + per - 1) / per
	if s.Points == 1 {
		return probes
	}
	return s.Points*probes - 1
}

// SpinHook is the preemption hook's side of a parked wait loop, installed
// with SetSpinHook beside SetPreempt. PureUntil returns the first yield
// point of the loop s at which the hook would act, if nothing disturbs the
// thread first (math.MaxInt64: none); at the yield points before it, the
// hook only changes state that Replay can bring up to date later. Replay
// applies the hook's calls at yield points 0..n-1 of the parked loop s,
// n <= s.Bound, before the loop's SpinProbe counts the probes. Without a
// hook, a loop under an enabled preemption hook never parks.
type SpinHook interface {
	PureUntil(s Spin) int64
	Replay(s Spin, n int64)
}

// SpinProbe accounts a parked loop's skipped probes: ReplayProbes applies
// the effects of the accesses and instructions of the probes the loop s
// closed from yield point 0 to yield point n (s.Probes(n) of them;
// s.L1DHits(n), s.Retired(n)), which spinning would have counted whatever
// the preemption hook.
type SpinProbe interface {
	ReplayProbes(s Spin, n int64)
}

// SetSpinHook installs the thread's SpinHook, which describes the hook
// installed by the last SetPreempt; SetPreempt clears it.
func (t *Thread) SetSpinHook(h SpinHook) { t.spinHook = h }

// ParkSpin parks the thread at yield point 0 of the wait loop s instead of
// running it, when the loop's skipped iterations are provably pure
// (DESIGN.md §9, "Parked spins"): the thread is outside atomic sections,
// the engine allows parks (ForbidParks; a tracer does not stop them),
// 0 < s.Interval and s.Probe+s.Interval < Quantum (so no advance of the
// loop reaches a quantum yield), s.Bound > 0, and the preemption hook is
// absent, disabled, or pure by the SpinHook at yield point 0 at least.
// The caller vouches for the rest: every skipped iteration would observe
// what the last one did, until w.Disturb (w may be nil), Engine.Wake,
// another Disturb or yield point s.Bound. probe (nil for a flag spin,
// which has none) accounts the skipped probes. The wake
// finds the first yield point ordered after the disturbing segment, has
// the SpinHook replay the ones before it and probe their probes, and
// ParkSpin returns its index once the thread resumes there. A park also
// ends by itself at yield point s.Bound, lowered to the first at which the
// hook acts (PureUntil), as the loop's own yield point at its clock: the
// thread resumes at the first yield point at or after s.Clock(s.Bound),
// where the caller or the hook acts for real. It returns false without
// parking otherwise, and the caller runs yield point 0. reason names what
// the loop waits for in deadlock diagnostics.
func (t *Thread) ParkSpin(reason string, w *Waiters, s Spin, probe SpinProbe) (int64, bool) {
	e := t.eng
	if s.Points < 1 || s.Points > 3 {
		panic(fmt.Sprintf("sim: thread %q parked a loop of %d yield points per iteration", t.Name, s.Points))
	}
	if t.atomicDepth > 0 || e.noParks || s.Interval <= 0 || s.Probe+s.Interval >= e.Quantum {
		return 0, false
	}
	if t.Preemptible() {
		if t.spinHook == nil {
			return 0, false
		}
		s.Bound = min(s.Bound, t.spinHook.PureUntil(s))
	}
	if s.Bound <= 0 {
		return 0, false
	}
	if w != nil {
		w.add(t)
	}
	t.spin, t.spinProbe = s, probe
	if t.spinWake == nil {
		t.spinWake = t.spinReplay
	}
	due := never
	if s.Bound < math.MaxInt64 {
		due = s.Clock(s.Bound)
	}
	t.Park(reason, due, t.spinWake)
	return t.spinAt, true
}

// spinReplay is a parked loop's wake (Park): the first yield point at or
// after from, after the SpinHook accounts the ones before it and the
// SpinProbe their probes. Only the thread itself installs, enables or
// disables its hook, so Preemptible reads as it did at the park.
func (t *Thread) spinReplay(from Cycles) (int64, Cycles) {
	j := t.spin.FirstAt(from)
	if t.Preemptible() {
		t.spinHook.Replay(t.spin, j)
	}
	if t.spinProbe != nil {
		t.spinProbe.ReplayProbes(t.spin, j)
	} else {
		t.eng.Stats.LockReplayed += j
	}
	t.spinAt = j
	return j, t.spin.Clock(j)
}

// Waiters lists the threads parked on one lock, in SpinWhile or in a CAS
// spin (kernel.Task.SpinCAS), for the lock's release to disturb. A thread
// is listed once however often it parks, so the list never holds more
// threads than wait on the lock, and once grown it allocates nothing. A listed thread that has since stopped
// waiting costs only a spurious Disturb, which is exact: the thread
// resumes where spinning would have left it.
type Waiters struct {
	ts []*Thread
}

// Disturb ends the park of every listed thread and empties the list. The
// lock's release calls it in the releasing segment, before the flag
// clears.
func (w *Waiters) Disturb() {
	for _, t := range w.ts {
		t.Disturb()
	}
	clear(w.ts)
	w.ts = w.ts[:0]
}

func (w *Waiters) add(t *Thread) {
	if !slices.Contains(w.ts, t) {
		w.ts = append(w.ts, t)
	}
}

// SpinWhile is a simulated spin lock's contended acquire, the wait loop
//
//	for busy() {
//		t.Advance(interval)
//		t.YieldPoint()
//	}
//
// over a condition that only host state decides: a flag whose release
// calls w.Disturb before it clears. It parks at the loop's yield point
// (ParkSpin) instead of spinning when it may. reason names the lock in
// deadlock diagnostics.
func (t *Thread) SpinWhile(reason string, w *Waiters, interval Cycles, busy func() bool) {
	for busy() {
		t.Advance(interval)
		t.eng.Stats.LockYields++
		if _, parked := t.ParkSpin(reason, w, Spin{C0: t.now, Interval: interval, Points: 1, Bound: math.MaxInt64}, nil); !parked {
			t.YieldPoint()
		}
	}
}
