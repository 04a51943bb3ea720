package kernel

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CloneCost is the simulated cost of clone(CLONE_VM|CLONE_THREAD): task
// struct allocation, kernel-stack setup, and run-queue insertion, charged
// to the parent. The instruction component feeds the parent's retired
// count (the scheduler quantum's currency).
const (
	CloneCost  sim.Cycles = 1500
	cloneInstr int64      = 300
)

// ClonedTask is the parent's handle on a child task created by Clone: join
// state plus the child's exit status.
type ClonedTask struct {
	Task *Task

	done   bool
	err    error
	joiner *Task
}

// Clone creates a sibling task in t's process — the reproduction's
// clone(CLONE_VM|CLONE_THREAD): the child shares the address space, page
// tables, and futexes of the parent, starts on the parent's node at core,
// and runs body on its own simulated thread. If the parent is scheduled,
// the child attaches to the same scheduler (waiting for its CPU before
// body runs). The child must NOT call Task.Exit — process teardown belongs
// to the process's main task; the child just returns from body and the
// parent reaps it with Join.
func (t *Task) Clone(name string, core int, body func(child *Task) error) (*ClonedTask, error) {
	if _, err := t.capAuthorize(cap.Spawn, "", "clone"); err != nil {
		return nil, err
	}
	if t.Sched != nil {
		if core < 0 || core >= t.Sched.Cores(t.Node) {
			return nil, fmt.Errorf("kernel: clone %q onto %v core %d: node has %d cores",
				name, t.Node, core, t.Sched.Cores(t.Node))
		}
	} else if core != 0 {
		return nil, fmt.Errorf("kernel: clone %q onto core %d without a scheduler", name, core)
	}
	t.Th.Advance(CloneCost)
	t.Stats.Instructions += cloneInstr
	t.Stats.NodeInstructions[t.Node] += cloneInstr

	c := &ClonedTask{}
	var child *Task
	th := t.Ctx.Plat.Engine.Spawn(name, t.Th.Now(), func(th *sim.Thread) {
		// The closure runs only after the parent yields the execution
		// token, which happens-after child is assigned below.
		if t.Sched != nil {
			t.Sched.Attach(child)
		}
		err := body(child)
		c.err = err
		c.done = true
		if t.Sched != nil {
			t.Sched.Detach(child)
		}
		if c.joiner != nil {
			c.joiner.Awaken(th.Now())
		}
	})
	child = NewTaskOn(name, t.Proc, t.OS, t.Ctx, th, core)
	c.Task = child
	if tr := t.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: trace.KindTaskClone,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			Arg: int64(th.ID), Name: name})
	}
	return c, nil
}

// Join blocks parent until the cloned child has finished and returns the
// child's error. A child supports exactly one joiner.
func (c *ClonedTask) Join(parent *Task) error {
	for !c.done {
		c.joiner = parent
		parent.Sleep("join")
	}
	c.joiner = nil
	return c.err
}
