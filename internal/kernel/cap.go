package kernel

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/pgtable"
	"repro/internal/sim"
	"repro/internal/trace"
)

// capCheckCost is the simulated cost of one capability gate evaluation on
// a tenant path: a table lookup plus an ownership/liveness compare. Root
// (nil-tenant) paths never pay it — the gate is a single host-side nil
// check, like the nil tracer.
const capCheckCost sim.Cycles = 40

// CapCancelPending reports whether a revocation cancelled this task's
// in-flight blocking syscall. OS personalities consult it under the futex
// control lock so a revoke landing between the syscall gate and the
// enqueue is seen before the task sleeps.
func (t *Task) CapCancelPending() bool { return t.capCancel }

// Tenant returns the tenant the task's process runs as (nil = root).
func (t *Task) Tenant() *cap.Tenant { return t.Proc.Ten }

// emitCapEvent traces a capability event attributed to this task.
func (t *Task) emitCapEvent(kind trace.Kind, id cap.CapID) {
	if tr := t.Ctx.Plat.Tracer; tr != nil {
		tr.Emit(trace.Event{Cycle: int64(t.Th.Now()), Kind: kind,
			Node: int8(t.Node), Core: int16(t.Core), Tid: int32(t.Th.ID),
			Arg: int64(id)})
	}
}

// capAuthorize is the deny-by-default syscall gate: it finds a live
// capability of kind k covering scope owned by the task's tenant. Root
// tasks pass for free (id 0, nil error). Tenant tasks pay capCheckCost
// and either get the covering capability's ID or a Denied *CapError.
func (t *Task) capAuthorize(k cap.Kind, scope, op string) (cap.CapID, error) {
	ten := t.Proc.Ten
	if ten == nil {
		return 0, nil
	}
	t.Th.Advance(capCheckCost)
	ten.Stats.CapsChecked++
	if t.Ctx.Caps != nil {
		if id, ok := t.Ctx.Caps.Table.Find(ten, k, scope); ok {
			return id, nil
		}
	}
	ten.Stats.Denials++
	t.emitCapEvent(trace.KindCapDenied, 0)
	return 0, &cap.CapError{Op: op, Tenant: ten.Name, Reason: cap.Denied, Detail: k.String() + " " + scope}
}

// capCheckHandle is the per-handle gate: it verifies that a handle's
// bound capability id is still a live capability of kind k owned by the
// task's tenant. Root tasks pass for free. This is what makes revocation
// bite: every FD-based syscall re-checks the handle's capability, so a
// revoked open file fails its next read with a typed error.
func (t *Task) capCheckHandle(id cap.CapID, k cap.Kind, op string) error {
	ten := t.Proc.Ten
	if ten == nil {
		return nil
	}
	t.Th.Advance(capCheckCost)
	ten.Stats.CapsChecked++
	if t.Ctx.Caps == nil {
		ten.Stats.Denials++
		t.emitCapEvent(trace.KindCapDenied, id)
		return &cap.CapError{Op: op, Tenant: ten.Name, ID: id, Reason: cap.Denied}
	}
	if err := t.Ctx.Caps.Table.Check(ten, id, k, op); err != nil {
		ten.Stats.Denials++
		t.emitCapEvent(trace.KindCapDenied, id)
		return err
	}
	return nil
}

// deriveCap mints a handle capability under parent (an open FD bound to
// the path grant that authorized the open, an accepted connection bound
// to its listener). Root tasks get handle 0 for free; handle 0 always
// passes capCheckHandle for them.
func (t *Task) deriveCap(parent cap.CapID, k cap.Kind, scope string) (cap.CapID, error) {
	ten := t.Proc.Ten
	if ten == nil {
		return 0, nil
	}
	t.Th.Advance(capCheckCost)
	id, err := t.Ctx.Caps.Table.Derive(parent, k, scope)
	if err != nil {
		ten.Stats.Denials++
		t.emitCapEvent(trace.KindCapDenied, parent)
		return 0, err
	}
	return id, nil
}

// Mmap is the capability-gated anonymous mmap: the tenant must hold a VMA
// capability. The frames themselves are charged later, page by page, as
// they become resident (MapFrame).
func (t *Task) Mmap(length uint64, flags VMAFlags, name string) (pgtable.VirtAddr, error) {
	if _, err := t.capAuthorize(cap.VMA, "", "mmap"); err != nil {
		return 0, err
	}
	return t.Proc.Mmap(length, flags, name)
}

// FutexWait is the capability-gated futex wait: the tenant must hold a
// Futex capability, and while blocked the task is registered under it so
// RevokeCap can cancel the wait mid-sleep. Root tasks delegate straight
// to the personality with zero added simulated cost.
func (t *Task) FutexWait(uaddr pgtable.VirtAddr, expected uint64) error {
	ten := t.Proc.Ten
	if ten == nil {
		return t.OS.FutexWait(t, uaddr, expected)
	}
	id, err := t.capAuthorize(cap.Futex, "", "futex-wait")
	if err != nil {
		return err
	}
	t.Ctx.capBlock(id, t)
	werr := t.OS.FutexWait(t, uaddr, expected)
	t.Ctx.capUnblock(id, t)
	cancelled := t.capCancel
	t.capCancel = false
	if cancelled {
		return &cap.CapError{Op: "futex-wait", Tenant: ten.Name, ID: id, Reason: cap.Revoked}
	}
	return werr
}

// FutexWake is the capability-gated futex wake. Wake never blocks, so no
// waiter registration is needed — just the authorization gate.
func (t *Task) FutexWake(uaddr pgtable.VirtAddr, n int) (int, error) {
	ten := t.Proc.Ten
	if ten == nil {
		return t.OS.FutexWake(t, uaddr, n)
	}
	_, err := t.capAuthorize(cap.Futex, "", "futex-wake")
	if err != nil {
		return 0, err
	}
	return t.OS.FutexWake(t, uaddr, n)
}

// RevokeCap revokes capability id and its whole derivation subtree,
// deterministically cancelling every task blocked under a revoked ID: a
// futex waiter is dequeued under the control lock and awakened with the
// cancel flag set (mirroring the personality's wake protocol, so the
// wake-up costs an IPI); a socket sleeper is awakened out of sockWait.
// The cancelled task's syscall returns a Revoked *CapError. Every gate
// reads the table when it runs, so no access is honored after the table
// flips — invariant 13. Returns the number of capabilities revoked.
func (t *Task) RevokeCap(id cap.CapID) (int, error) {
	if t.Ctx.Caps == nil {
		return 0, fmt.Errorf("kernel: revoke without a capability namespace")
	}
	revoked := t.Ctx.Caps.Table.Revoke(id)
	for _, rid := range revoked {
		if e := t.Ctx.Caps.Table.Get(rid); e != nil && e.Owner != nil {
			e.Owner.Stats.Revocations++
		}
		t.emitCapEvent(trace.KindCapRevoke, rid)
		for _, bt := range t.Ctx.capBlocked[rid] {
			bt.capCancel = true
			wakeLat := t.Ctx.Plat.Clock(bt.Node).FromMicros(t.Ctx.Plat.Cfg.IPIMicros)
			switch {
			case bt.futexOn != nil:
				// Mirror FutexWake: dequeue under the control lock so the
				// waiter count in simulated memory stays truthful, then
				// deliver the wake as an IPI.
				f := bt.futexOn
				f.Lock(t.Port)
				f.Remove(t.Port, bt)
				f.Unlock(t.Port)
				bt.Awaken(t.Th.Now() + wakeLat)
			case bt.sockSleeping:
				bt.sockSleeping = false
				bt.Awaken(t.Th.Now() + wakeLat)
				// A task registered but neither enqueued nor asleep is
				// between its gate and its sleep; the personality sees
				// capCancel under the control lock and backs out itself.
			}
		}
		delete(t.Ctx.capBlocked, rid)
	}
	return len(revoked), nil
}
