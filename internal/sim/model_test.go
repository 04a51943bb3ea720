package sim

import (
	"fmt"
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
)

type op struct {
	kind opKind
	n    Cycles
	arg  int
}

// script is one thread's whole life. Threads of one group only ever wake
// each other.
type script struct {
	name      string
	ops       []op
	group     int
	hookEvery int // > 0: a preempt hook that Blocks on every hookEvery-th call
	root      bool
	start     Cycles
}

const modelQuantum = 64

// genScripts builds a scenario from a seed: a few root threads per group
// plus children that running threads spawn.
func genScripts(seed uint64, groups int) []script {
	r := NewRNG(seed)
	roots := groups + 1 + r.Intn(4)
	children := r.Intn(4)
	scripts := make([]script, roots+children)
	for i := range scripts {
		s := &scripts[i]
		s.name = fmt.Sprintf("s%d", i)
		s.root = i < roots
		s.group = i % groups
		s.start = Cycles(r.Intn(40))
		if r.Intn(4) == 0 {
			s.hookEvery = 3 + r.Intn(6)
		}
		depth := 0
		for n := 20 + r.Intn(40); n > 0; n-- {
			switch p := r.Intn(100); {
			case p < 40:
				s.ops = append(s.ops, op{kind: opAdvance, n: Cycles(1 + r.Intn(modelQuantum*3/2))})
			case p < 55:
				s.ops = append(s.ops, op{kind: opYield})
			case p < 58:
				s.ops = append(s.ops, op{kind: opBlock})
			case p < 85:
				s.ops = append(s.ops, op{kind: opWake, n: Cycles(r.Intn(120)), arg: r.Intn(16)})
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
}

func newScriptWorld(scripts []script, groups int) *scriptWorld {
	w := &scriptWorld{eng: NewEngine(), scripts: scripts, groups: make([][]*Thread, groups)}
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
	if s.hookEvery > 0 {
		calls := 0
		t.SetPreempt(func() {
			if calls++; calls%s.hookEvery == 0 {
				t.Block("hook")
			}
		})
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
		}
	}
}

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
}

// modelCoverage counts the situations the scenario set must reach for the
// comparison to mean anything.
type modelCoverage struct {
	finished, deadlocks, panics          int
	selfPicks, wakeBeatsSleep, hookParks int
	wakeRunnableRaised, spawns, nested   int
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
	// segments the engine may run without a host switch.
	selfPicks int64
	cov       *modelCoverage
}

func (m *model) emit(k trace.Kind, c Cycles, id int, name string) {
	m.events = append(m.events, trace.Event{Cycle: int64(c), Kind: k, Tid: int32(id), Node: -1, Name: name})
}

func (m *model) spawn(i int, start Cycles) {
	s := &m.scripts[i]
	t := &modelThread{id: len(m.threads), s: s, now: start, state: stateRunnable}
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
		if t.s.hookEvery > 0 {
			if t.calls++; t.calls%t.s.hookEvery == 0 {
				if m.block(t, "hook") {
					m.cov.hookParks++
					return
				}
			}
		}
	}
	for t.pc < len(t.s.ops) {
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
		}
	}
	t.state = stateDone
	m.emit(trace.KindThreadDone, t.now, t.id, t.s.name)
}

// run is the whole scheduling rule.
func (m *model) run() error {
	for {
		var next *modelThread
		for _, t := range m.threads {
			if t.state == stateRunnable && (next == nil || t.now < next.now) {
				next = t // ties: the lower ID came first and stays
			}
		}
		if next == nil {
			var stuck []string
			for _, t := range m.threads {
				if t.state == stateBlocked {
					stuck = append(stuck, fmt.Sprintf("%s(%s)", t.s.name, t.blockReason))
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
		if next.id != m.lastRun {
			m.emit(trace.KindThreadSwitch, next.now, next.id, next.s.name)
		} else {
			m.selfPicks++
			m.cov.selfPicks++
		}
		m.lastRun = next.id
		c0 := next.now
		m.segment(next)
		m.segments++
		m.cycles += next.now - c0
		if next.err != nil {
			m.cov.panics++
			return next.err
		}
	}
}

func runModel(scripts []script, groups int, cov *modelCoverage) (*model, error) {
	m := &model{scripts: scripts, groups: make([][]*modelThread, groups), lastRun: -1, cov: cov}
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

const modelSeeds = 240

// TestScheduleModel compares the sequential driver, traced, with the
// interpreter: events, error, final clocks and segment accounting.
func TestScheduleModel(t *testing.T) {
	var cov modelCoverage
	for seed := uint64(1); seed <= modelSeeds; seed++ {
		groups := 1 + int(seed%3)
		scripts := genScripts(seed, groups)
		m, wantErr := runModel(scripts, groups, &cov)

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
	}
	for name, n := range map[string]int{
		"finished": cov.finished, "deadlock": cov.deadlocks, "panic": cov.panics,
		"self re-pick": cov.selfPicks, "wake beats sleep": cov.wakeBeatsSleep,
		"hook park": cov.hookParks, "wake raises a runnable thread": cov.wakeRunnableRaised,
		"spawn from a running thread": cov.spawns, "nested atomic": cov.nested,
	} {
		if n == 0 {
			t.Errorf("no scenario reached %q: the generator lost coverage", name)
		}
	}
	t.Logf("coverage over %d seeds: %+v", modelSeeds, cov)
}

// TestScheduleModelParallel runs the same scripts untraced, each on its own
// engine, with four engines at a time on concurrent host goroutines (as
// -hostprocs runs an experiment's rows): the error, every final clock and
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
				if st.SerialSegments != j.m.segments || st.SerialCycles != j.m.cycles || st.SelfContinues != j.m.selfPicks {
					t.Errorf("seed %d: %d segments / %d cycles / %d self-continues, model %d / %d / %d",
						j.seed, st.SerialSegments, st.SerialCycles, st.SelfContinues,
						j.m.segments, j.m.cycles, j.m.selfPicks)
				}
			}
		}()
	}
	for seed := uint64(1); seed <= modelSeeds; seed++ {
		groups := 1 + int(seed%3)
		scripts := genScripts(seed, groups)
		m, wantErr := runModel(scripts, groups, &cov)
		jobs <- job{seed, scripts, groups, m, wantErr}
	}
	close(jobs)
	wg.Wait()
}
