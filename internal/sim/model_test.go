package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/trace"
)

// The schedule-model test holds the engine to its one scheduling rule —
// "the runnable thread with the minimum (clock, ID) runs next" — by running
// scripted pseudo-random threads on the real engine and on a goroutine-free
// interpreter of the same scripts, and requiring the same event stream, the
// same final clocks and the same segment accounting from both. However the
// engine moves the host CPU between threads (and whether it moves it at
// all), the interpreter below is what it must be indistinguishable from.
//
// A spin op is a wait loop — advance, yield, until a group member sets the
// thread's flag — which the engine runs through Thread.ParkSpin: it parks
// at the loop's poll, and a disturb op (or a wake) brings it back at its
// first yield point ordered after the disturbing segment. Half the spin
// ops split each iteration into three advances, each ending at a yield
// point, some of them empty: a multi-point table, where neighbours may
// share a clock and a park may end inside an iteration. Some spin ops
// script the yield point of their first park where their hook stops being
// pure: that park also ends by itself at the first yield point with that
// yield point's clock.
// The interpreter never parks: it spins, granting every iteration by the
// minimum rule, and only leaves the iterations the engine skips out of the
// event stream and out of the self-continue count; the scripted yield
// point is an ordinary runnable one at its clock. So the ordering rule
// (ties broken by ID included) is checked against plain spinning.
//
// Lock and unlock ops take and release a spin lock of the thread's group:
// the engine waits in Thread.SpinWhile, the interpreter spins, and the
// unlock disturbs every waiter the engine has parked. As with spin ops, the
// iterations a parked SpinWhile skips are left out of the event stream.

type opKind int

const (
	opAdvance opKind = iota
	opYield
	opBlock
	opWake // n = delivery delay, arg = index into the thread's group
	opBeginAtomic
	opEndAtomic
	opSpawn // arg = script index of the child
	opPanic
	opSpin    // n = the loop's advance per iteration, gaps its split at the iteration's yield points, arg > 0 = its first park's bound (Spin.Bound)
	opDisturb // arg = index into the thread's group: set its flag
	opLock    // n = the spin's poll interval, arg > 0 = its first park's bound; the group's lock
	opUnlock
)

type op struct {
	kind opKind
	n    Cycles
	arg  int
	gaps []Cycles
}

// script is one thread's whole life. Threads of one group only ever wake
// each other.
type script struct {
	name      string
	ops       []op
	group     int
	hookEvery int // > 0: a preempt hook that Blocks on every hookEvery-th call
	// spinner scripts hold spin ops and a preempt hook that only counts its
	// calls: a parked loop's skipped hooks are pure.
	spinner bool
	root    bool
	start   Cycles
}

// hooked reports whether the script's threads install a preempt hook.
func (s *script) hooked() bool { return s.hookEvery > 0 || s.spinner }

const modelQuantum = 64

// genScripts builds a scenario from a seed: a few root threads per group
// plus children that running threads spawn. Seeds above modelSeeds add
// spinner scripts and disturb ops, and seeds above modelSeeds+spinSeeds
// lock and unlock ops; lower seeds draw exactly the scenarios they did
// before those ops existed.
func genScripts(seed uint64, groups int) []script {
	r := NewRNG(seed)
	spin := seed > modelSeeds
	locks := seed > modelSeeds+spinSeeds
	wakeEnd := 85 // wake ops take p in [58, wakeEnd), disturb ops [wakeEnd, 85)
	if spin {
		wakeEnd = 77
	}
	roots := groups + 1 + r.Intn(4)
	children := r.Intn(4)
	scripts := make([]script, roots+children)
	for i := range scripts {
		s := &scripts[i]
		s.name = fmt.Sprintf("s%d", i)
		s.root = i < roots
		s.group = i % groups
		s.start = Cycles(r.Intn(40))
		if s.spinner = spin && r.Intn(3) == 0; !s.spinner && r.Intn(4) == 0 {
			s.hookEvery = 3 + r.Intn(6)
		}
		depth, holding := 0, false
		for n := 20 + r.Intn(40); n > 0; n-- {
			// Never inside an atomic section, where a contended lock would
			// spin without yielding, and never nested.
			if locks && depth == 0 {
				if !holding && r.Intn(8) == 0 {
					o := op{kind: opLock, n: Cycles(8 * (1 + r.Intn(7)))}
					if r.Intn(2) == 0 {
						o.arg = 1 + r.Intn(6)
					}
					s.ops = append(s.ops, o)
					holding = true
					continue
				}
				if holding && r.Intn(5) == 0 {
					s.ops = append(s.ops, op{kind: opUnlock})
					holding = false
					continue
				}
			}
			if s.spinner && depth == 0 && r.Intn(6) == 0 {
				// Multiples of 8 make clock ties with other threads common.
				o := op{kind: opSpin, n: Cycles(8 * (1 + r.Intn(7)))}
				if r.Intn(2) == 0 {
					o.arg = 1 + r.Intn(6)
				}
				o.gaps = []Cycles{o.n}
				if r.Intn(2) == 0 {
					// Cuts at multiples of 4 in [0, n): empty advances
					// and clock ties are common.
					a := Cycles(4 * r.Intn(int(o.n/4)))
					b := a + Cycles(4*r.Intn(int((o.n-a)/4)))
					o.gaps = []Cycles{a, b - a, o.n - b}
				}
				s.ops = append(s.ops, o)
				continue
			}
			switch p := r.Intn(100); {
			case p < 40:
				s.ops = append(s.ops, op{kind: opAdvance, n: Cycles(1 + r.Intn(modelQuantum*3/2))})
			case p < 55:
				s.ops = append(s.ops, op{kind: opYield})
			case p < 58:
				s.ops = append(s.ops, op{kind: opBlock})
			case p < wakeEnd:
				s.ops = append(s.ops, op{kind: opWake, n: Cycles(r.Intn(120)), arg: r.Intn(16)})
			case p < 85:
				s.ops = append(s.ops, op{kind: opDisturb, arg: r.Intn(16)})
			case p < 92 && depth < 3:
				depth++
				s.ops = append(s.ops, op{kind: opBeginAtomic})
			case depth > 0:
				depth--
				s.ops = append(s.ops, op{kind: opEndAtomic})
			}
		}
		for ; depth > 0; depth-- {
			s.ops = append(s.ops, op{kind: opEndAtomic})
		}
		// Some holders exit without unlocking.
		if holding && r.Intn(3) > 0 {
			s.ops = append(s.ops, op{kind: opUnlock})
		}
	}
	// Every child is spawned exactly once, by an earlier script, and joins
	// its parent's group.
	for c := roots; c < len(scripts); c++ {
		p := &scripts[r.Intn(c)]
		scripts[c].group = p.group
		at := r.Intn(len(p.ops) + 1)
		p.ops = append(p.ops[:at], append([]op{{kind: opSpawn, arg: c}}, p.ops[at:]...)...)
	}
	if seed%8 == 0 {
		s := &scripts[r.Intn(len(scripts))]
		s.ops[r.Intn(len(s.ops))] = op{kind: opPanic}
	}
	return scripts
}

// --- the real engine, driven by scripts ---------------------------------

type scriptWorld struct {
	eng     *Engine
	scripts []script
	groups  [][]*Thread
	// flag, calls and bound are per thread ID: the spin flag, the count of
	// preempt-hook calls, replayed ones included, and the bound of the
	// lock op's first park, which its SpinHook reports.
	flag  map[ThreadID]bool
	calls map[ThreadID]int
	bound map[ThreadID]int64
	// held and waiters are per group: its lock.
	held    []bool
	waiters []Waiters
}

func newScriptWorld(scripts []script, groups int) *scriptWorld {
	w := &scriptWorld{eng: NewEngine(), scripts: scripts, groups: make([][]*Thread, groups),
		flag: map[ThreadID]bool{}, calls: map[ThreadID]int{}, bound: map[ThreadID]int64{},
		held: make([]bool, groups), waiters: make([]Waiters, groups)}
	w.eng.Quantum = modelQuantum
	return w
}

func (w *scriptWorld) spawn(i int, start Cycles) {
	s := &w.scripts[i]
	t := w.eng.Spawn(s.name, start, func(t *Thread) { w.run(t, s) })
	w.groups[s.group] = append(w.groups[s.group], t)
}

func (w *scriptWorld) spawnRoots() {
	for i := range w.scripts {
		if w.scripts[i].root {
			w.spawn(i, w.scripts[i].start)
		}
	}
}

func (w *scriptWorld) run(t *Thread, s *script) {
	if s.hooked() {
		t.SetPreempt(func() {
			if w.calls[t.ID]++; s.hookEvery > 0 && w.calls[t.ID]%s.hookEvery == 0 {
				t.Block("hook")
			}
		})
	}
	if s.spinner {
		// The counting hook is pure; a blocking one is not, and a lock
		// spin under it never parks.
		t.SetSpinHook(countingSpin{w, t.ID})
	}
	for _, o := range s.ops {
		switch o.kind {
		case opAdvance:
			t.Advance(o.n)
		case opYield:
			t.YieldPoint()
		case opBlock:
			t.Block("script")
		case opWake:
			g := w.groups[s.group]
			w.eng.Wake(g[o.arg%len(g)], t.Now()+o.n)
		case opBeginAtomic:
			t.BeginAtomic()
		case opEndAtomic:
			t.EndAtomic()
		case opSpawn:
			w.spawn(o.arg, t.Now())
		case opPanic:
			panic("boom")
		case opSpin:
			// The flag is read at the poll and at the loop top after it.
			w.bound[t.ID] = int64(o.arg)
			pts := make([]SpinPoint, len(o.gaps))
			for i, g := range o.gaps {
				pts[i].At = g
				if i > 0 {
					pts[i].At += pts[i-1].At
				}
			}
			for pos := 0; pos != 0 || !w.flag[t.ID]; {
				t.Advance(o.gaps[pos])
				if pos++; pos < len(pts) {
					t.YieldPoint()
					continue
				}
				pos = 0
				if !w.flag[t.ID] {
					if j, parked := t.ParkSpin("spin", nil, Spin{C0: t.Now(), Points: pts, Bound: math.MaxInt64}, w); parked {
						pos = int(j % int64(len(pts)))
						continue
					}
				}
				t.YieldPoint()
			}
			w.flag[t.ID] = false
		case opDisturb:
			g := w.groups[s.group]
			u := g[o.arg%len(g)]
			w.flag[u.ID] = true
			u.Disturb()
		case opLock:
			w.bound[t.ID] = int64(o.arg)
			t.SpinWhile("lock", &w.waiters[s.group], o.n, func() bool { return w.held[s.group] })
			w.held[s.group] = true
		case opUnlock:
			w.waiters[s.group].Disturb()
			w.held[s.group] = false
		}
	}
}

// ReplayProbes is the spin ops' SpinProbe: their probes count nothing.
func (w *scriptWorld) ReplayProbes(Spin, int64) {}

// countingSpin is the counting hook's SpinHook: the hook is pure, except
// at the scripted bound of a spin or lock op's first park, and replaying
// n yield points counts n calls.
type countingSpin struct {
	w  *scriptWorld
	id ThreadID
}

func (h countingSpin) PureUntil(Spin) int64 {
	b := h.w.bound[h.id]
	if b == 0 {
		return math.MaxInt64
	}
	h.w.bound[h.id] = 0
	return b
}

func (h countingSpin) Replay(_ Spin, n int64) { h.w.calls[h.id] += int(n) }

func (w *scriptWorld) clocks() []Cycles {
	out := make([]Cycles, len(w.eng.threads))
	for i, t := range w.eng.threads {
		out[i] = t.Now()
	}
	return out
}

// --- the interpreter ----------------------------------------------------

type modelThread struct {
	id  int
	s   *script
	pc  int
	now Cycles
	err error
	// calls counts preempt-hook invocations.
	calls       int
	atomicDepth int
	sinceYield  Cycles
	state       threadState
	wakePending bool
	blockReason string
	// afterYield is set while the thread is suspended inside YieldPoint:
	// its preempt hook runs first when it is next picked.
	afterYield bool

	// spin is the advances of the spin op the thread is in (nil: none),
	// one per yield point of an iteration, and spinPos the one next;
	// spinMid marks a quantum yield inside the loop's advance. flag is the
	// spin flag. parked is set while the engine would have the thread
	// parked, disturbed once something has disturbed it there: its
	// iterations are the engine's replayed ones until then. bound is the
	// spin or lock op's first park's bound (0: none, or that park is past);
	// timed marks a park with a bound, left the virtual iterations before
	// it: the iteration after them is runnable for real at its clock.
	spin              []Cycles
	spinPos           int
	bound, left       int
	lastVirtual       Cycles // the clock the last virtual segment began at
	spinMid           bool
	flag              bool
	parked, disturbed bool
	timed             bool
	// lock is the poll interval of the lock op the thread spins in (0:
	// none); lockMid marks a quantum yield inside the spin's advance.
	lock    Cycles
	lockMid bool
}

// virtual reports whether the thread's next segment is one the engine
// replays instead of running.
func (t *modelThread) virtual() bool { return t.parked && !t.disturbed }

// lockCoverage counts the lock-op situations the lock seeds must reach.
type lockCoverage struct {
	lockReplayed, releaseDisturbs, unparkedSpins       int
	releaseTieBelow, releaseTieAbove, lockedAtDeadlock int
	timedLockWakes                                     int
}

// modelLock is a group's lock on the interpreter's side: whether it is
// held, and the threads the engine has listed as parked on it (Waiters).
type modelLock struct {
	held    bool
	waiters []*modelThread
}

// modelCoverage counts the situations the scenario set must reach for the
// comparison to mean anything.
type modelCoverage struct {
	finished, deadlocks, panics          int
	selfPicks, wakeBeatsSleep, hookParks int
	wakeRunnableRaised, spawns, nested   int
	replayed, disturbs, wakeParked       int
	tieBelow, tieAbove, parkedAtDeadlock int
	timedWakes, timedSelfPicks           int
	timedDisturbs                        int
	// innerResumes counts parks of multi-point spins that ended inside an
	// iteration, tiedBounds the bounds on a yield point that shares its
	// clock with the one before.
	innerResumes, tiedBounds int
}

type model struct {
	scripts  []script
	threads  []*modelThread
	groups   [][]*modelThread
	events   []trace.Event
	lastRun  int
	segments int64
	cycles   Cycles
	// selfPicks counts segments whose thread was also the previous pick: the
	// segments the engine may run without a host switch. replayed counts
	// the virtual ones (modelThread.virtual), which are neither.
	selfPicks, replayed int64
	// segStart and cur are the running segment's key.
	segStart Cycles
	cur      int
	cov      *modelCoverage
	// locks are per group; lockYields and lockReplayed count the lock
	// spins' yield points run and virtual (EngineStats.LockYields,
	// LockReplayed).
	locks                    []modelLock
	lockYields, lockReplayed int64
	// timedParks counts the parks with a bound (EngineStats.TimedParks).
	timedParks int64
	lcov       *lockCoverage
}

// ties reports whether a disturb of u by the running segment ties with a
// yield point of u's loop: one at the segment's clock ran before it (lower
// ID), or is where the loop resumes (higher ID).
func (m *model) ties(u *modelThread) (below, above bool) {
	return u.id < m.cur && u.lastVirtual == m.segStart, u.id > m.cur && u.now == m.segStart
}

// disturb is Thread.Disturb on the interpreter's side.
func (m *model) disturb(u *modelThread) {
	if !u.virtual() {
		return
	}
	u.disturbed = true
	m.cov.disturbs++
	if u.timed {
		m.cov.timedDisturbs++
	}
	below, above := m.ties(u)
	if below {
		m.cov.tieBelow++
	}
	if above {
		m.cov.tieAbove++
	}
}

// spinPark is the decision a spin op makes at its loop's poll: park unless
// its flag is already set, until its bound if it has one. A park that ends
// at its bound resumes at the first yield point with the bound's clock.
func (m *model) spinPark(t *modelThread) {
	t.parked = !t.flag
	m.timedPark(t, t.parked && t.bound > 0)
	for t.left > 0 && t.spin[(t.left-1)%len(t.spin)] == 0 {
		t.left--
		m.cov.tiedBounds++
	}
}

// spinPoint is the yield point after one of a spin op's advances: an
// inner one, or the poll, where the loop may park.
func (m *model) spinPoint(t *modelThread) {
	if t.spinPos++; t.spinPos == len(t.spin) {
		t.spinPos = 0
		m.spinPark(t)
	}
	m.yield(t)
}

// timedPark records whether t's park has a bound, and consumes the bound.
func (m *model) timedPark(t *modelThread, timed bool) {
	t.timed, t.left = timed, t.bound
	t.bound = 0
	if timed {
		m.timedParks++
	}
}

// lockPark is the decision SpinWhile makes at its yield point: park, and
// join the lock's waiters, unless a preempt hook that is not pure (one
// that blocks) is installed; under the counting hook, the op's first park
// until its bound.
func (m *model) lockPark(t *modelThread) {
	m.lockYields++
	if t.s.hookEvery > 0 {
		m.lcov.unparkedSpins++
		return
	}
	t.parked = true
	if t.s.spinner {
		m.timedPark(t, t.bound > 0)
	}
	l := &m.locks[t.s.group]
	if !slices.Contains(l.waiters, t) {
		l.waiters = append(l.waiters, t)
	}
}

func (m *model) emit(k trace.Kind, c Cycles, id int, name string) {
	m.events = append(m.events, trace.Event{Cycle: int64(c), Kind: k, Tid: int32(id), Node: -1, Name: name})
}

func (m *model) spawn(i int, start Cycles) {
	s := &m.scripts[i]
	t := &modelThread{id: len(m.threads), s: s, now: start, state: stateRunnable, lastVirtual: -1}
	m.threads = append(m.threads, t)
	m.groups[s.group] = append(m.groups[s.group], t)
	m.emit(trace.KindThreadSpawn, start, t.id, s.name)
}

// block is Thread.Block; it reports whether the thread suspended.
func (m *model) block(t *modelThread, reason string) bool {
	if t.wakePending {
		t.wakePending = false
		m.cov.wakeBeatsSleep++
		return false
	}
	m.emit(trace.KindThreadBlock, t.now, t.id, reason)
	t.blockReason = reason
	t.sinceYield = 0
	t.state = stateBlocked
	return true
}

// yield is Thread.YieldPoint up to its suspension; it reports whether the
// thread suspended (never inside an atomic section).
func (m *model) yield(t *modelThread) bool {
	if t.atomicDepth > 0 {
		return false
	}
	t.sinceYield = 0
	t.state = stateRunnable
	t.afterYield = true
	return true
}

// segment runs t from where it last suspended to where it next does.
func (m *model) segment(t *modelThread) {
	t.state = stateRunning
	t.blockReason = ""
	if t.afterYield {
		t.afterYield = false
		if t.s.hooked() {
			if t.calls++; t.s.hookEvery > 0 && t.calls%t.s.hookEvery == 0 {
				if m.block(t, "hook") {
					m.cov.hookParks++
					return
				}
			}
		}
	}
	if t.parked {
		if t.disturbed {
			t.parked, t.disturbed, t.timed = false, false, false
			if t.spinPos != 0 {
				m.cov.innerResumes++
			}
		} else {
			// A yield point the engine replays: the flag is still clear,
			// or the lock still held.
			if t.spin != nil {
				t.now += t.spin[t.spinPos]
				t.spinPos = (t.spinPos + 1) % len(t.spin)
			}
			t.now += t.lock
			m.yield(t)
			return
		}
	}
	if t.spinMid {
		t.spinMid = false
		m.spinPoint(t)
		return
	}
	if t.lockMid {
		t.lockMid = false
		m.lockPark(t)
		m.yield(t)
		return
	}
	for t.spin != nil || t.lock > 0 || t.pc < len(t.s.ops) {
		if t.spin != nil {
			if t.spinPos == 0 && t.flag {
				t.flag, t.spin = false, nil
				continue
			}
			g := t.spin[t.spinPos]
			t.now += g
			t.sinceYield += g
			if t.sinceYield >= modelQuantum && m.yield(t) {
				t.spinMid = true
				return
			}
			m.spinPoint(t)
			return
		}
		if t.lock > 0 {
			l := &m.locks[t.s.group]
			if !l.held {
				l.held, t.lock = true, 0
				continue
			}
			t.now += t.lock
			t.sinceYield += t.lock
			if t.sinceYield >= modelQuantum && m.yield(t) {
				t.lockMid = true
				return
			}
			m.lockPark(t)
			m.yield(t)
			return
		}
		o := t.s.ops[t.pc]
		t.pc++
		switch o.kind {
		case opAdvance:
			t.now += o.n
			t.sinceYield += o.n
			if t.sinceYield >= modelQuantum && m.yield(t) {
				return
			}
		case opYield:
			if m.yield(t) {
				return
			}
		case opBlock:
			if m.block(t, "script") {
				return
			}
		case opWake:
			g := m.groups[t.s.group]
			u := g[o.arg%len(g)]
			if u.virtual() {
				m.cov.wakeParked++
			}
			m.disturb(u)
			if when := t.now + o.n; u.now < when {
				if u.state == stateRunnable {
					m.cov.wakeRunnableRaised++
				}
				u.now = when
			}
			m.emit(trace.KindThreadWake, u.now, u.id, u.s.name)
			if u.state == stateBlocked {
				u.state = stateRunnable
			} else if u.state != stateDone {
				u.wakePending = true
			}
		case opBeginAtomic:
			if t.atomicDepth++; t.atomicDepth > 1 {
				m.cov.nested++
			}
		case opEndAtomic:
			t.atomicDepth--
			if t.atomicDepth == 0 && t.sinceYield >= modelQuantum && m.yield(t) {
				return
			}
		case opSpawn:
			m.spawn(o.arg, t.now)
			m.cov.spawns++
		case opPanic:
			t.err = fmt.Errorf("sim: thread %q panicked: %v", t.s.name, "boom")
			t.pc = len(t.s.ops)
		case opSpin:
			t.spin, t.spinPos, t.bound = o.gaps, 0, o.arg
		case opDisturb:
			g := m.groups[t.s.group]
			u := g[o.arg%len(g)]
			u.flag = true
			m.disturb(u)
		case opLock:
			t.lock, t.bound = o.n, o.arg
		case opUnlock:
			l := &m.locks[t.s.group]
			for _, u := range l.waiters {
				if u.virtual() {
					m.lcov.releaseDisturbs++
					below, above := m.ties(u)
					if below {
						m.lcov.releaseTieBelow++
					}
					if above {
						m.lcov.releaseTieAbove++
					}
				}
				m.disturb(u)
			}
			l.waiters = l.waiters[:0]
			l.held = false
		}
	}
	t.state = stateDone
	m.emit(trace.KindThreadDone, t.now, t.id, t.s.name)
}

// run is the whole scheduling rule.
func (m *model) run() error {
	for {
		var next *modelThread
		live := false
		for _, t := range m.threads {
			if t.state == stateRunnable && (next == nil || t.now < next.now) {
				next = t // ties: the lower ID came first and stays
			}
			live = live || t.state == stateRunnable && (!t.virtual() || t.timed)
		}
		if !live {
			// Only undisturbed spinners could run, and none of them can
			// disturb anyone: the engine has them parked and stops here.
			var stuck []string
			for _, t := range m.threads {
				if t.state == stateBlocked {
					stuck = append(stuck, fmt.Sprintf("%s(%s)", t.s.name, t.blockReason))
				}
				if t.state == stateRunnable && t.lock > 0 {
					stuck = append(stuck, fmt.Sprintf("%s(lock)", t.s.name))
					m.cov.parkedAtDeadlock++
					m.lcov.lockedAtDeadlock++
				} else if t.state == stateRunnable {
					stuck = append(stuck, fmt.Sprintf("%s(spin)", t.s.name))
					m.cov.parkedAtDeadlock++
				}
			}
			if stuck == nil {
				m.cov.finished++
				return nil
			}
			m.cov.deadlocks++
			sort.Strings(stuck)
			return fmt.Errorf("sim: deadlock, blocked threads: %v", stuck)
		}
		if next.virtual() && next.timed {
			if next.left == 0 { // the park's bound: the engine grants it here
				next.disturbed = true
				m.cov.timedWakes++
				if next.lock > 0 {
					m.lcov.timedLockWakes++
				}
				if next.id == m.lastRun {
					m.cov.timedSelfPicks++
				}
			} else {
				next.left--
			}
		}
		c0 := next.now
		if next.virtual() {
			next.lastVirtual = c0
			m.replayed++
			m.cov.replayed++
			if next.lock > 0 {
				m.lockReplayed++
				m.lcov.lockReplayed++
			}
		} else {
			if next.id != m.lastRun {
				m.emit(trace.KindThreadSwitch, next.now, next.id, next.s.name)
			} else {
				m.selfPicks++
				m.cov.selfPicks++
			}
			m.lastRun = next.id
			m.segStart, m.cur = c0, next.id
		}
		m.segment(next)
		m.segments++
		m.cycles += next.now - c0
		if next.err != nil {
			m.cov.panics++
			return next.err
		}
	}
}

func runModel(scripts []script, groups int, cov *modelCoverage, lcov *lockCoverage) (*model, error) {
	m := &model{scripts: scripts, groups: make([][]*modelThread, groups), lastRun: -1, cov: cov,
		locks: make([]modelLock, groups), lcov: lcov}
	for i := range scripts {
		if scripts[i].root {
			m.spawn(i, scripts[i].start)
		}
	}
	return m, m.run()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func eventText(evs []trace.Event) string {
	return (&trace.Buffer{Events: evs}).Text()
}

// modelSeeds are the scenarios without spin ops; the spinSeeds after them
// add spinners, disturb ops and wakes of parked threads, and the lockSeeds
// after those lock and unlock ops.
const (
	modelSeeds = 240
	spinSeeds  = 240
	lockSeeds  = 240
)

// TestScheduleModel compares Engine.Run, traced, with the interpreter:
// events, error, final clocks and segment accounting.
func TestScheduleModel(t *testing.T) {
	var cov, plain, lockCov modelCoverage
	var lcov lockCoverage
	for seed := uint64(1); seed <= modelSeeds+spinSeeds+lockSeeds; seed++ {
		if seed == modelSeeds+1 {
			plain = cov
		}
		locks := seed > modelSeeds+spinSeeds
		c := &cov
		if locks {
			c = &lockCov
		}
		groups := 1 + int(seed%3)
		scripts := genScripts(seed, groups)
		m, wantErr := runModel(scripts, groups, c, &lcov)

		w := newScriptWorld(scripts, groups)
		buf := trace.NewBuffer()
		w.eng.Tracer = buf
		w.spawnRoots()
		gotErr := w.eng.Run()

		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("seed %d: Run error %q, model %q", seed, errText(gotErr), errText(wantErr))
		}
		if got, want := eventText(buf.Events), eventText(m.events); got != want {
			t.Fatalf("seed %d: event stream diverges from the model\n--- engine\n%s--- model\n%s", seed, got, want)
		}
		clocks := w.clocks()
		if len(clocks) != len(m.threads) {
			t.Fatalf("seed %d: %d threads, model %d", seed, len(clocks), len(m.threads))
		}
		for i, c := range clocks {
			if c != m.threads[i].now {
				t.Fatalf("seed %d: thread %d ends at %d, model %d", seed, i, c, m.threads[i].now)
			}
		}
		st := w.eng.Stats
		if st.SerialSegments != m.segments || st.SerialCycles != m.cycles {
			t.Fatalf("seed %d: %d segments / %d cycles, model %d / %d",
				seed, st.SerialSegments, st.SerialCycles, m.segments, m.cycles)
		}
		if st.Handoffs() != m.segments {
			t.Fatalf("seed %d: Handoffs() = %d, model segments %d", seed, st.Handoffs(), m.segments)
		}
		if st.SelfContinues != m.selfPicks {
			t.Fatalf("seed %d: %d self-continues, model re-picked the yielding thread %d times",
				seed, st.SelfContinues, m.selfPicks)
		}
		if st.Replayed != m.replayed {
			t.Fatalf("seed %d: %d replayed yield points, model %d", seed, st.Replayed, m.replayed)
		}
		if st.TimedParks != m.timedParks {
			t.Fatalf("seed %d: %d timed parks, model %d", seed, st.TimedParks, m.timedParks)
		}
		if st.LockYields != m.lockYields || st.LockReplayed != m.lockReplayed {
			t.Fatalf("seed %d: %d lock-spin yield points run and %d replayed, model %d and %d",
				seed, st.LockYields, st.LockReplayed, m.lockYields, m.lockReplayed)
		}
		for i, mt := range m.threads {
			if got := w.calls[ThreadID(i)]; got != mt.calls {
				t.Fatalf("seed %d: thread %d ran its preempt hook %d times, model %d", seed, i, got, mt.calls)
			}
		}
	}
	for name, n := range map[string]int{
		"finished": cov.finished, "deadlock": cov.deadlocks, "panic": cov.panics,
		"self re-pick": cov.selfPicks, "wake beats sleep": cov.wakeBeatsSleep,
		"hook park": cov.hookParks, "wake raises a runnable thread": cov.wakeRunnableRaised,
		"spawn from a running thread": cov.spawns, "nested atomic": cov.nested,
		"replayed yield point": cov.replayed, "disturb of a parked thread": cov.disturbs,
		"disturb tied by a lower ID": cov.tieBelow, "disturb tied by a higher ID": cov.tieAbove,
		"wake of a parked thread": cov.wakeParked,
		"park ended at its bound": cov.timedWakes, "park ended at its bound without a switch": cov.timedSelfPicks,
		"disturb before the bound":       cov.timedDisturbs,
		"parked at deadlock":             cov.parkedAtDeadlock,
		"park ended inside an iteration": cov.innerResumes, "bound tied with the yield point before": cov.tiedBounds,
	} {
		if n == 0 {
			t.Errorf("no scenario reached %q: the generator lost coverage", name)
		}
	}
	for name, n := range map[string]int{
		"replayed lock-spin yield point": lcov.lockReplayed, "release of a parked waiter": lcov.releaseDisturbs,
		"release tied by a lower ID": lcov.releaseTieBelow, "release tied by a higher ID": lcov.releaseTieAbove,
		"lock waiter parked at deadlock":     lcov.lockedAtDeadlock,
		"lock spin under a hook that blocks": lcov.unparkedSpins,
		"lock park ended at its bound":       lcov.timedLockWakes,
	} {
		if n == 0 {
			t.Errorf("no lock seed reached %q: the generator lost coverage", name)
		}
	}
	t.Logf("coverage over seeds 1..%d (no spin ops): %+v", modelSeeds, plain)
	t.Logf("coverage over all %d seeds: %+v", modelSeeds+spinSeeds, cov)
	t.Logf("coverage over the %d lock seeds: %+v %+v", lockSeeds, lockCov, lcov)
}

// TestScheduleModelParallel runs the same scripts untraced, each on its own
// engine, with four engines at a time on concurrent host goroutines (as
// an experiment's rows run at a row width above 1): the error, every final clock and
// the segment accounting must still match the interpreter. This covers
// Run's untraced path, which TestScheduleModel does not take, and shows
// that engines share no state.
func TestScheduleModelParallel(t *testing.T) {
	type job struct {
		seed    uint64
		scripts []script
		groups  int
		m       *model
		wantErr error
	}
	var cov modelCoverage
	var lcov lockCoverage
	jobs := make(chan job)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				w := newScriptWorld(j.scripts, j.groups)
				w.spawnRoots()
				gotErr := w.eng.Run()
				if errText(gotErr) != errText(j.wantErr) {
					t.Errorf("seed %d: Run error %q, model %q", j.seed, errText(gotErr), errText(j.wantErr))
					continue
				}
				clocks := w.clocks()
				if len(clocks) != len(j.m.threads) {
					t.Errorf("seed %d: %d threads, model %d", j.seed, len(clocks), len(j.m.threads))
					continue
				}
				for i, c := range clocks {
					if c != j.m.threads[i].now {
						t.Errorf("seed %d: thread %d ends at %d, model %d", j.seed, i, c, j.m.threads[i].now)
					}
				}
				st := w.eng.Stats
				if st.SerialSegments != j.m.segments || st.SerialCycles != j.m.cycles ||
					st.SelfContinues != j.m.selfPicks || st.Replayed != j.m.replayed ||
					st.LockYields != j.m.lockYields || st.LockReplayed != j.m.lockReplayed ||
					st.TimedParks != j.m.timedParks {
					t.Errorf("seed %d: %d segments / %d cycles / %d self-continues / %d replayed, model %d / %d / %d / %d",
						j.seed, st.SerialSegments, st.SerialCycles, st.SelfContinues, st.Replayed,
						j.m.segments, j.m.cycles, j.m.selfPicks, j.m.replayed)
				}
			}
		}()
	}
	for seed := uint64(1); seed <= modelSeeds+spinSeeds+lockSeeds; seed++ {
		groups := 1 + int(seed%3)
		scripts := genScripts(seed, groups)
		m, wantErr := runModel(scripts, groups, &cov, &lcov)
		jobs <- job{seed, scripts, groups, m, wantErr}
	}
	close(jobs)
	wg.Wait()
}
