package sim

import "slices"

// Spin is the yield-point schedule of a parked flag spin (SpinWhile): its
// yield point j, counted from the one it parked at, is at clock
// C0 + j·Interval.
type Spin struct {
	C0, Interval Cycles
}

// Clock returns the clock of yield point j.
func (s Spin) Clock(j int64) Cycles { return s.C0 + Cycles(j)*s.Interval }

// FirstAt returns the first yield point at or after clock c.
func (s Spin) FirstAt(c Cycles) int64 {
	if c <= s.C0 {
		return 0
	}
	return int64((c - s.C0 + s.Interval - 1) / s.Interval)
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
// instead of spinning when the skipped iterations are provably pure
// (DESIGN.md §6, "Spin parking"): the thread is outside atomic sections,
// no engine tracer is installed, 0 < interval < Quantum (so no advance of
// the loop reaches a quantum yield), and the preemption hook is absent,
// disabled, or pure by the test installed with SetPreemptSpin. Until the
// release, Engine.Wake or the hook's owner disturbs it, every skipped
// iteration reads the same flag and advances the same interval, so the
// wake finds the first yield point ordered after the disturbing segment
// with one division and has the hook's replay account the skipped hooks.
// reason names the lock in deadlock diagnostics.
func (t *Thread) SpinWhile(reason string, w *Waiters, interval Cycles, busy func() bool) {
	for busy() {
		t.Advance(interval)
		t.eng.Stats.LockYields++
		if !t.spinParkable(interval) {
			t.YieldPoint()
			continue
		}
		w.add(t)
		t.spin = Spin{C0: t.now, Interval: interval}
		if t.spinWake == nil {
			t.spinWake = t.spinReplay
		}
		t.Park(reason, t.spinWake)
	}
}

// spinParkable reports whether SpinWhile may park at its yield point.
func (t *Thread) spinParkable(interval Cycles) bool {
	e := t.eng
	return t.atomicDepth == 0 && e.Tracer == nil && interval > 0 && interval < e.Quantum &&
		(!t.Preemptible() || t.preemptPure != nil && t.preemptPure())
}

// spinReplay is a parked SpinWhile's wake (Park): the first yield point
// at or after from, after the installed replay accounts the preemption
// hooks of the ones before it. Only the thread itself installs, enables
// or disables its hook, so Preemptible reads as it did at the park.
func (t *Thread) spinReplay(from Cycles) (int64, Cycles) {
	j := t.spin.FirstAt(from)
	if j > 0 && t.Preemptible() {
		t.preemptReplay(t.spin, j)
	}
	t.eng.Stats.LockReplayed += j
	return j, t.spin.Clock(j)
}

// SetPreemptSpin declares what the preemption hook does at a flag spin's
// yield points (SpinWhile), where no simulated work happens but the
// loop's advance. pure reports whether, from now until something disturbs
// the thread, the hook would only change state that replay can bring up
// to date later; replay applies the hook's calls at yield points 0..n-1
// of the parked spin s. Without them a spin under an enabled hook never
// parks. SetPreempt clears them: they describe one hook.
func (t *Thread) SetPreemptSpin(pure func() bool, replay func(s Spin, n int64)) {
	t.preemptPure, t.preemptReplay = pure, replay
}
