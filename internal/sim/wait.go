package sim

import (
	"fmt"
	"math"
	"slices"
)

// SpinPoint is one yield point of a parked wait loop's iteration (Spin):
// its clock offset from the poll that ended the iteration before, and the
// L1D hits the iteration has charged and the loads and other instructions
// it has retired by then.
type SpinPoint struct {
	At                 Cycles
	Hits, Loads, Instr int64
}

// Spin is the yield-point schedule of a parked wait loop (ParkSpin), its
// yield points numbered 0, 1, 2, … from the one it parked at: the poll at
// clock C0. Every later iteration runs the yield points of the table
// Points in order, the last of them its poll, so the poll's offset is the
// iteration's period. Along the table neither offsets nor counts
// decrease, and neighbours may share a clock. The wait loops build these
// tables, with a probe of p cycles and an advance of i cycles to the poll:
//
//   - a flag spin (SpinWhile): the poll alone, at i, with no probe;
//   - a socket probe (kernel.Task.PollSock) of syscalls that contain no
//     yield point: the poll alone, at p+i;
//   - a CAS probe (kernel.Task.SpinCAS): the CAS's close at p, then the
//     poll;
//   - a memory probe (kernel.Task.SpinWait): the loop top at offset 0,
//     the probe's close at p, then the poll;
//   - a socket probe followed by m ring probes (the production frontend):
//     after the syscalls, each ring probe's open and close, one probe's
//     close sharing its clock with the next one's open, then the poll:
//     2m+1 points.
//
// Bound is the first yield point at which the loop stops being pure: the
// caller's own (math.MaxInt64: none), which ParkSpin lowers to the first
// at which the preemption hook acts.
type Spin struct {
	C0     Cycles
	Points []SpinPoint
	Bound  int64
}

// point returns the iteration yield point j >= 1 belongs to, counted from
// 0, and its entry in the table.
func (s Spin) point(j int64) (int64, SpinPoint) {
	n := int64(len(s.Points))
	return (j - 1) / n, s.Points[(j-1)%n]
}

// poll returns the table's last entry: the iteration's period and counts.
func (s Spin) poll() SpinPoint { return s.Points[len(s.Points)-1] }

// Clock returns the clock of yield point j.
func (s Spin) Clock(j int64) Cycles {
	if j == 0 {
		return s.C0
	}
	q, p := s.point(j)
	return s.C0 + Cycles(q)*s.poll().At + p.At
}

// L1DHits returns the L1D hits the loop charges from yield point 0 to
// yield point j.
func (s Spin) L1DHits(j int64) int64 {
	if j == 0 {
		return 0
	}
	q, p := s.point(j)
	return q*s.poll().Hits + p.Hits
}

// Loads returns the loads the loop retires from yield point 0 to yield
// point j.
func (s Spin) Loads(j int64) int64 {
	if j == 0 {
		return 0
	}
	q, p := s.point(j)
	return q*s.poll().Loads + p.Loads
}

// Retired returns the instructions, loads included, the loop retires from
// yield point 0 to yield point j.
func (s Spin) Retired(j int64) int64 {
	if j == 0 {
		return 0
	}
	q, p := s.point(j)
	last := s.poll()
	return q*(last.Loads+last.Instr) + p.Loads + p.Instr
}

// FirstAt returns the first yield point at or after clock c.
func (s Spin) FirstAt(c Cycles) int64 {
	if c <= s.C0 {
		return 0
	}
	// Iteration q's points lie in [C0+q·T, C0+(q+1)·T], its poll last;
	// c > C0 falls in (C0+q·T, C0+(q+1)·T] for one q, whose poll is at or
	// after c while no point of an earlier iteration is.
	period := s.poll().At
	q := (c - s.C0 - 1) / period
	x := c - s.C0 - q*period
	r := 0
	for s.Points[r].At < x {
		r++
	}
	return int64(q)*int64(len(s.Points)) + int64(r) + 1
}

// FirstWith returns the first yield point at which the loop has retired at
// least instr instructions since yield point 0; for a loop that retires
// none (a flag spin, a CAS probe) with instr > 0 there is none, and it
// returns math.MaxInt64.
func (s Spin) FirstWith(instr int64) int64 {
	last := s.poll()
	per := last.Loads + last.Instr
	switch {
	case instr <= 0:
		return 0
	case per == 0:
		return math.MaxInt64
	}
	q := (instr - 1) / per
	x := instr - q*per
	r := 0
	for p := s.Points[r]; p.Loads+p.Instr < x; p = s.Points[r] {
		r++
	}
	return q*int64(len(s.Points)) + int64(r) + 1
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
// the effects of the accesses and instructions of the loop s from yield
// point 0 to yield point n (s.L1DHits(n), s.Loads(n), s.Retired(n)), which
// spinning would have counted whatever the preemption hook.
type SpinProbe interface {
	ReplayProbes(s Spin, n int64)
}

// SetSpinHook installs the thread's SpinHook, which describes the hook
// installed by the last SetPreempt; SetPreempt clears it.
func (t *Thread) SetSpinHook(h SpinHook) { t.spinHook = h }

// ParkSpin parks the thread at yield point 0 of the wait loop s instead of
// running it, when the loop's skipped iterations are provably pure
// (DESIGN.md §9, "Parked spins"): the thread is outside atomic sections,
// the engine allows parks (ForbidParks; a tracer does not stop them), the
// iteration's period is positive and below Quantum (so no segment of the
// loop, each starting at a yield point, reaches a quantum yield),
// s.Bound > 0, and the preemption hook is absent, disabled, or pure by
// the SpinHook at yield point 0 at least. The table may have any shape.
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
	if len(s.Points) == 0 {
		panic(fmt.Sprintf("sim: thread %q parked a loop with no yield point per iteration", t.Name))
	}
	if period := s.poll().At; t.atomicDepth > 0 || e.noParks || period <= 0 || period >= e.Quantum {
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
		t.flagPoll[0] = SpinPoint{At: interval}
		if _, parked := t.ParkSpin(reason, w, Spin{C0: t.now, Points: t.flagPoll[:], Bound: math.MaxInt64}, nil); !parked {
			t.YieldPoint()
		}
	}
}
