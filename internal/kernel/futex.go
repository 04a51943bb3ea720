package kernel

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/trace"
)

// FutexTable is the kernel's fast-userspace-mutex state. Each futex has a
// control block in simulated memory — a lock word protecting the waiter
// list — so that the cost of manipulating the list is real memory traffic.
// Under the multiple-kernel baseline the table lives at the origin kernel
// and remote kernels reach it by RPC; under the fused-kernel OS the remote
// kernel manipulates it directly through cache-coherent shared memory and
// wakes cross-ISA waiters with a single IPI (§6.5, Figure 13).
type FutexTable struct {
	// controlBase is the simulated memory region holding per-futex control
	// blocks (allocated from the owning kernel's memory).
	controlBase mem.PhysAddr
	nextBlock   int
	buckets     map[futexKey]*Futex
}

type futexKey struct {
	pid   int
	uaddr pgtable.VirtAddr
}

// futexBlockSize is the control block footprint: lock word, waiter count,
// list head/tail pointers (4 x 8 bytes, padded to a cache line).
const futexBlockSize = mem.LineSize

// Futex is one futex: its control block address and its waiter queue.
type Futex struct {
	Control mem.PhysAddr
	waiters []*Task
}

// NewFutexTable creates a table whose control blocks live in the page at
// base (the caller allocates it from kernel memory).
func NewFutexTable(base mem.PhysAddr) *FutexTable {
	return &FutexTable{controlBase: base, buckets: make(map[futexKey]*Futex)}
}

// Get returns (creating if needed) the futex for (pid, uaddr).
func (ft *FutexTable) Get(pid int, uaddr pgtable.VirtAddr) *Futex {
	k := futexKey{pid, uaddr}
	f := ft.buckets[k]
	if f == nil {
		f = &Futex{Control: ft.controlBase + mem.PhysAddr(ft.nextBlock*futexBlockSize)}
		ft.nextBlock++
		ft.buckets[k] = f
	}
	return f
}

// Lock acquires the futex control lock with a CAS spin through pt,
// charging realistic contention costs. Like a kernel spinlock, holding the
// control lock disables CPU preemption (re-enabled by Unlock): a task must
// not be descheduled while it holds the lock — a queued waiter spinning
// for it would deadlock the core — and keeping preemption off through the
// enqueue-to-sleep window guarantees a futex wake is never consumed by a
// run-queue block. The spin itself stays preemptible.
func (f *Futex) Lock(pt *hw.Port) {
	for i := 0; ; i++ {
		pt.T.DisablePreempt()
		if _, ok := pt.CompareAndSwap64(f.Control, 0, 1); ok {
			return
		}
		pt.T.EnablePreempt()
		pt.T.Advance(50) // backoff
		pt.T.YieldPoint()
		if i > 1_000_000 {
			panic(fmt.Sprintf("kernel: futex control lock livelock at %#x", f.Control))
		}
	}
}

// Unlock releases the control lock and re-enables preemption.
func (f *Futex) Unlock(pt *hw.Port) {
	pt.Write64(f.Control, 0)
	pt.T.EnablePreempt()
}

// Enqueue appends t to the waiter list, charging the list update. The
// caller holds the control lock. The task's futexOn backlink lets
// RevokeCap find (and cancel) a waiter blocked under a revoked
// capability.
func (f *Futex) Enqueue(pt *hw.Port, t *Task) {
	f.waiters = append(f.waiters, t)
	t.futexOn = f
	pt.Write64(f.Control+8, uint64(len(f.waiters)))
}

// Dequeue removes up to n waiters, charging the list update. The caller
// holds the control lock.
func (f *Futex) Dequeue(pt *hw.Port, n int) []*Task {
	if n > len(f.waiters) {
		n = len(f.waiters)
	}
	out := f.waiters[:n]
	f.waiters = append([]*Task(nil), f.waiters[n:]...)
	for _, t := range out {
		t.futexOn = nil
	}
	pt.Write64(f.Control+8, uint64(len(f.waiters)))
	return out
}

// Remove deletes one specific waiter from the list, charging the list
// update; it reports whether t was enqueued. The caller holds the control
// lock. This is the cancellation path: RevokeCap dequeues a waiter whose
// capability died so its wake-up is a typed error, not a futex wake.
func (f *Futex) Remove(pt *hw.Port, t *Task) bool {
	for i, w := range f.waiters {
		if w == t {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			t.futexOn = nil
			pt.Write64(f.Control+8, uint64(len(f.waiters)))
			return true
		}
	}
	return false
}

// Waiters returns the current waiter count.
func (f *Futex) Waiters() int { return len(f.waiters) }

// ErrFutexRetry reports that the userspace word no longer held the
// expected value when FutexWait checked it under the lock (EAGAIN); the
// caller re-examines the word and retries its locking protocol.
var ErrFutexRetry = fmt.Errorf("kernel: futex value changed (EAGAIN)")

// CheckAndEnqueue is every personality's FutexWait check-and-enqueue,
// charged to pt: under f's lock it backs out with ErrFutexRetry when a
// revocation cancelled t between the syscall gate and here (the gated
// wrapper then reports the *CapError) or when the word at uaddr no longer
// holds expected, and otherwise enqueues t.
func (f *Futex) CheckAndEnqueue(pt *hw.Port, t *Task, uaddr pgtable.VirtAddr, expected uint64) error {
	f.Lock(pt)
	defer f.Unlock(pt)
	if t.CapCancelPending() {
		return ErrFutexRetry
	}
	val, err := futexLoadValue(pt, t.Proc, uaddr)
	if err != nil {
		return err
	}
	if val != expected {
		return ErrFutexRetry
	}
	f.Enqueue(pt, t)
	return nil
}

// FutexSleep blocks t once CheckAndEnqueue has queued it: it counts the
// wait, sleeps until a wake, and emits the blocked span.
func (t *Task) FutexSleep(uaddr pgtable.VirtAddr) {
	t.Stats.FutexWaits++
	blockStart := t.Th.Now()
	t.Sleep("futex")
	t.emitSpan(trace.KindFutexWait, blockStart, uint64(uaddr), 0)
}

// futexLoadValue reads the current userspace value of uaddr through the
// most authoritative mapping: a node holding the page DSM-exclusive wins,
// then any valid mapping. The read is charged to pt.
func futexLoadValue(pt *hw.Port, proc *Process, uaddr pgtable.VirtAddr) (uint64, error) {
	meta := proc.MetaIfAny(uaddr)
	if meta == nil {
		return 0, fmt.Errorf("kernel: futex word %#x never touched", uaddr)
	}
	off := mem.PhysAddr(uaddr & (mem.PageSize - 1))
	for n := 0; n < 2; n++ {
		if meta.Valid[n] && meta.DSM[n] == DSMExclusive {
			return pt.Read64(meta.Frames[n] + off), nil
		}
	}
	for n := 0; n < 2; n++ {
		if meta.Valid[n] {
			return pt.Read64(meta.Frames[n] + off), nil
		}
	}
	return 0, fmt.Errorf("kernel: futex word %#x not mapped anywhere", uaddr)
}
