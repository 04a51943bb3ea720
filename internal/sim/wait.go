package sim

import (
	"math"
	"slices"
)

// Spin is the yield-point schedule of a parked wait loop (ParkSpin), its
// yield points numbered 0, 1, 2, … from the one it parked at, where it has
// just advanced Interval cycles, and Bound, the first of them at which the
// preemption hook acts (math.MaxInt64: none), which ParkSpin sets from the
// SpinHook. A probe charges Hits L1D hits and retires Loads instructions.
// The schedule has one of three shapes:
//
//   - a flag spin (SpinWhile) has one yield point per Interval and no
//     probe: Probe, Hits and Loads are zero;
//   - a memory probe (kernel.Task.SpinWait) has three yield points per
//     iteration of Probe+Interval cycles: the loop top, at the clock of
//     the yield point before it; the probe's close, Probe cycles later,
//     after its Loads loads, each an L1D hit (Hits = Loads); and the
//     poll, after the next Interval;
//   - a CAS probe (kernel.Task.SpinCAS) has two: the probe's close,
//     Probe cycles after the poll before it, after the CAS's one L1D
//     write hit (Hits = 1, Loads = 0: a CAS retires no instruction); and
//     the poll, after the next Interval.
type Spin struct {
	C0, Interval, Probe Cycles
	Hits, Loads, Bound  int64
}

// points returns the yield points per iteration.
func (s Spin) points() int64 {
	switch {
	case s.Hits == 0:
		return 1
	case s.Loads == 0:
		return 2
	}
	return 3
}

// Clock returns the clock of yield point j. The last yield point of each
// iteration but the poll is the probe's close.
func (s Spin) Clock(j int64) Cycles {
	p := s.points()
	c := s.C0 + Cycles(j/p)*(s.Probe+s.Interval)
	if j%p == p-1 {
		c += s.Probe
	}
	return c
}

// probes returns the probes the loop closes from yield point 0 to yield
// point j.
func (s Spin) probes(j int64) int64 { return (j + 1) / s.points() }

// Instr returns the instructions the loop retires from yield point 0 to
// yield point j: Loads per probe closed.
func (s Spin) Instr(j int64) int64 { return s.Loads * s.probes(j) }

// L1DHits returns the L1D hits the loop charges from yield point 0 to
// yield point j: Hits per probe closed.
func (s Spin) L1DHits(j int64) int64 { return s.Hits * s.probes(j) }

// FirstAt returns the first yield point at or after clock c.
func (s Spin) FirstAt(c Cycles) int64 {
	if c <= s.C0 {
		return 0
	}
	p, period := s.points(), s.Probe+s.Interval
	m, r := int64((c-s.C0)/period), (c-s.C0)%period
	switch {
	case r == 0:
		return p * m
	case r <= s.Probe:
		return p*m + p - 1
	}
	return p * (m + 1)
}

// FirstWith returns the first yield point at which the loop has retired at
// least instr instructions since yield point 0; for a loop that retires
// none (a flag spin, a CAS probe) with instr > 0 there is none, and it
// returns math.MaxInt64.
func (s Spin) FirstWith(instr int64) int64 {
	switch {
	case instr <= 0:
		return 0
	case s.Loads == 0:
		return math.MaxInt64
	}
	return 3*((instr+s.Loads-1)/s.Loads) - 1
}

// SpinHook is the preemption hook's side of a parked wait loop, installed
// with SetSpinHook beside SetPreempt. PureUntil returns the first yield
// point of the loop s at which the hook would act, if nothing disturbs the
// thread first (math.MaxInt64: none); at the yield points before it, the
// hook only changes state that Replay can bring up to date later. Replay
// applies the hook's calls at yield points 0..n-1 of the parked loop s,
// n <= s.Bound, and the effects of the accesses the loop's probes made
// before yield point n (s.L1DHits(n), s.Instr(n)). Without a hook, a loop
// under an enabled preemption hook never parks.
type SpinHook interface {
	PureUntil(s Spin) int64
	Replay(s Spin, n int64)
}

// SetSpinHook installs the thread's SpinHook, which describes the hook
// installed by the last SetPreempt; SetPreempt clears it.
func (t *Thread) SetSpinHook(h SpinHook) { t.spinHook = h }

// ParkSpin parks the thread at yield point 0 of the wait loop s instead of
// running it, when the loop's skipped iterations are provably pure
// (DESIGN.md §9, "Parked spins"): the thread is outside atomic sections, no
// engine tracer is installed, 0 < s.Interval and s.Probe+s.Interval <
// Quantum (so no advance of the loop reaches a quantum yield), and the
// preemption hook is absent, disabled, or pure by the SpinHook at yield
// point 0 at least. The caller vouches for the rest: every skipped
// iteration would observe what the last one did, until w.Disturb (w may be
// nil), Engine.Wake or another Disturb. The wake finds the first yield
// point ordered after the disturbing segment, has the SpinHook replay the
// ones before it, and ParkSpin returns its index once the thread resumes
// there. A park whose hook acts at a yield point (s.Bound, from PureUntil)
// also ends there by itself, as the loop's own yield point at its clock:
// the thread resumes at the first yield point at or after s.Clock(s.Bound),
// where the hook runs for real. It returns false without parking
// otherwise, and the caller runs yield point 0. reason names what the loop
// waits for in deadlock diagnostics.
func (t *Thread) ParkSpin(reason string, w *Waiters, s Spin) (int64, bool) {
	e := t.eng
	if t.atomicDepth > 0 || e.Tracer != nil || s.Interval <= 0 || s.Probe+s.Interval >= e.Quantum {
		return 0, false
	}
	s.Bound = math.MaxInt64
	if t.Preemptible() {
		if t.spinHook == nil {
			return 0, false
		}
		if s.Bound = t.spinHook.PureUntil(s); s.Bound <= 0 {
			return 0, false
		}
	}
	if w != nil {
		w.add(t)
	}
	t.spin = s
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
// after from, after the SpinHook accounts the ones before it. Only the
// thread itself installs, enables or disables its hook, so Preemptible
// reads as it did at the park.
func (t *Thread) spinReplay(from Cycles) (int64, Cycles) {
	j := t.spin.FirstAt(from)
	if t.Preemptible() {
		t.spinHook.Replay(t.spin, j)
	}
	if t.spin.Hits == 0 {
		t.eng.Stats.LockReplayed += j
	}
	t.spinAt = j
	return j, t.spin.Clock(j)
}

// Waiters lists the threads parked in SpinWhile on one lock, for the
// lock's release to disturb. A thread is listed once however often it
// parks, so the list never holds more threads than wait on the lock, and
// once grown it allocates nothing. A listed thread that has since stopped
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
		if _, parked := t.ParkSpin(reason, w, Spin{C0: t.now, Interval: interval}); !parked {
			t.YieldPoint()
		}
	}
}
