package kernel

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/pgtable"
)

// warmTask runs body on a vanilla task with two heap pages that are
// mapped, in the task's TLB and resident Modified in its L1D at their first
// words, so every Load or Store of those words is a TLB hit plus an L1 hit
// through the whole Task path. body gets the first page; the second
// follows it, and the page after that is mapped but never touched.
func warmTask(tb testing.TB, body func(task *Task, va pgtable.VirtAddr) error) {
	tb.Helper()
	runVanilla(tb, testContext(tb, mem.Shared), mem.NodeX86, func(_ *Vanilla, task *Task) error {
		va, err := task.Proc.Mmap(3*mem.PageSize, VMARead|VMAWrite, "hot")
		if err != nil {
			return err
		}
		for _, a := range []pgtable.VirtAddr{va, va + mem.PageSize} {
			if err := task.Store(a, 8, 1); err != nil {
				return err
			}
		}
		return body(task, va)
	})
}

// BenchmarkTaskLoadHit is the host cost of one Task.Load that hits the TLB
// and L1D: the per-access path every simulated workload load takes.
func BenchmarkTaskLoadHit(b *testing.B) {
	warmTask(b, func(task *Task, va pgtable.VirtAddr) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := task.Load(va, 8); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkTaskStoreHit is BenchmarkTaskLoadHit for Task.Store.
func BenchmarkTaskStoreHit(b *testing.B) {
	warmTask(b, func(task *Task, va pgtable.VirtAddr) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := task.Store(va, 8, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkTaskStoreHitAlternating is BenchmarkTaskStoreHit with the
// stores alternating between the first lines of two pages, both in the
// L1D and Modified: unlike one line, two defeat the per-core directory
// hint, so an L1D write hit that consulted the directory would pay its
// lookup here.
func BenchmarkTaskStoreHitAlternating(b *testing.B) {
	warmTask(b, func(task *Task, va pgtable.VirtAddr) error {
		vas := [2]pgtable.VirtAddr{va, va + mem.PageSize}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := task.Store(vas[i&1], 8, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestTaskLoadStoreHitZeroAllocs(t *testing.T) {
	warmTask(t, func(task *Task, va pgtable.VirtAddr) error {
		misses := task.Stats.TLBMisses
		if avg := testing.AllocsPerRun(100, func() { task.Load(va, 8) }); avg != 0 {
			t.Errorf("TLB+L1 hit Load allocates %.1f times per call, want 0", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { task.Store(va, 8, 2) }); avg != 0 {
			t.Errorf("TLB+L1 hit Store allocates %.1f times per call, want 0", avg)
		}
		if task.Stats.TLBMisses != misses {
			t.Errorf("%d TLB misses on a warm page", task.Stats.TLBMisses-misses)
		}

		// A page whose frame is never written: its translation holds no
		// host bytes, so a Load falls back to the Port, and reads zeros.
		// The first Store materializes the frame and gives the
		// translation its bytes; from then on both hit through them.
		cold := va + 2*mem.PageSize
		host := func() *[mem.PageSize]byte {
			_, h, _, _ := task.tlb.lookup(cold)
			return h
		}
		if v, err := task.Load(cold, 8); err != nil || v != 0 {
			return fmt.Errorf("first Load of a never-written page: %d, %v", v, err)
		}
		if host() != nil {
			return fmt.Errorf("a never-written frame's translation holds host bytes")
		}
		if avg := testing.AllocsPerRun(100, func() { task.Load(cold, 8) }); avg != 0 {
			t.Errorf("TLB+L1 hit Load of a never-written frame allocates %.1f times per call, want 0", avg)
		}
		if err := task.Store(cold, 8, 3); err != nil {
			return err
		}
		pa, _, _ := task.tryTranslate(cold, false)
		if h := host(); h == nil || h != task.Ctx.Plat.Phys.Frame(pa) {
			return fmt.Errorf("after the first Store the translation holds %p, want the frame's bytes", h)
		}
		misses = task.Stats.TLBMisses
		if avg := testing.AllocsPerRun(100, func() { task.Store(cold+8, 8, 4) }); avg != 0 {
			t.Errorf("TLB+L1 hit Store through host bytes allocates %.1f times per call, want 0", avg)
		}
		var v uint64
		if avg := testing.AllocsPerRun(100, func() { v, _ = task.Load(cold+8, 8) }); avg != 0 {
			t.Errorf("TLB+L1 hit Load through host bytes allocates %.1f times per call, want 0", avg)
		}
		if v != 4 || task.Ctx.Plat.Phys.Read64(pa+8) != 4 {
			t.Errorf("Load through host bytes read %d, memory holds %d; want 4", v, task.Ctx.Plat.Phys.Read64(pa+8))
		}
		if task.Stats.TLBMisses != misses {
			t.Errorf("%d TLB misses on a page with host bytes", task.Stats.TLBMisses-misses)
		}
		return nil
	})
}

// BenchmarkTaskReadAppend is the host cost of one 64-byte Task.ReadAppend
// that hits the TLB and L1D into a buffer with room: the read every socket
// server ring slot and GET value takes.
func BenchmarkTaskReadAppend(b *testing.B) {
	warmTask(b, func(task *Task, va pgtable.VirtAddr) error {
		buf := make([]byte, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = task.ReadAppend(buf[:0], va, 64); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestTaskReadAppendZeroAllocs(t *testing.T) {
	warmTask(t, func(task *Task, va pgtable.VirtAddr) error {
		buf := make([]byte, 0, 64)
		if avg := testing.AllocsPerRun(100, func() { buf, _ = task.ReadAppend(buf[:0], va, 64) }); avg != 0 {
			t.Errorf("ReadAppend into a 64-byte buffer allocates %.1f times per call, want 0", avg)
		}
		if len(buf) != 64 {
			t.Errorf("ReadAppend returned %d bytes, want 64", len(buf))
		}
		return nil
	})
}
