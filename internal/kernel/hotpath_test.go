package kernel

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pgtable"
)

// warmTask runs body on a vanilla task with one heap page that is mapped,
// in the task's TLB and resident Modified in its L1D, so every Load or
// Store of it is a TLB hit plus an L1 hit through the whole Task path.
func warmTask(tb testing.TB, body func(task *Task, va pgtable.VirtAddr) error) {
	tb.Helper()
	runVanilla(tb, testContext(tb, mem.Shared), mem.NodeX86, func(_ *Vanilla, task *Task) error {
		va, err := task.Proc.Mmap(mem.PageSize, VMARead|VMAWrite, "hot")
		if err != nil {
			return err
		}
		if err := task.Store(va, 8, 1); err != nil {
			return err
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
