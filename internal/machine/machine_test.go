package machine

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
)

func allOSKinds() []OSKind {
	return []OSKind{VanillaOS, PopcornTCP, PopcornSHM, StramashOS}
}

// allModels returns the hardware models New accepts with every OS kind.
func allModels() []mem.Model {
	return []mem.Model{mem.Separated, mem.Shared, mem.FullyShared}
}

func TestBootAllConfigurations(t *testing.T) {
	for _, model := range allModels() {
		for _, os := range allOSKinds() {
			m, err := New(Config{Model: model, OS: os})
			if err != nil {
				t.Fatalf("%v/%v: %v", model, os, err)
			}
			if m.OS.Name() == "" {
				t.Errorf("%v/%v: empty OS name", model, os)
			}
		}
	}
}

// TestLocalReadWriteAllOSes is invariant 2 on one node: every read returns
// the last value written, on every hardware model and OS.
func TestLocalReadWriteAllOSes(t *testing.T) {
	for _, os := range allOSKinds() {
		t.Run(os.String(), func(t *testing.T) {
			for _, model := range allModels() {
				t.Run(model.String(), func(t *testing.T) { localReadWrite(t, model, os) })
			}
		})
	}
}

func localReadWrite(t *testing.T, model mem.Model, os OSKind) {
	m, err := New(Config{Model: model, OS: os})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSingle("rw", mem.NodeX86, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(64<<10, kernel.VMARead|kernel.VMAWrite, "heap")
		if err != nil {
			return err
		}
		for i := 0; i < 1000; i++ {
			if err := task.Store(base+pgtable.VirtAddr(i*8), 8, uint64(i*i)); err != nil {
				return err
			}
		}
		for i := 0; i < 1000; i++ {
			v, err := task.Load(base+pgtable.VirtAddr(i*8), 8)
			if err != nil {
				return err
			}
			if v != uint64(i*i) {
				t.Errorf("mem[%d] = %d, want %d", i, v, i*i)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMigrationPreservesMemory is invariant 2 across a migration and
// back, on every hardware model and every OS that migrates (the vanilla
// OS cannot cross kernels).
func TestMigrationPreservesMemory(t *testing.T) {
	for _, os := range []OSKind{PopcornSHM, PopcornTCP, StramashOS} {
		t.Run(os.String(), func(t *testing.T) {
			for _, model := range allModels() {
				t.Run(model.String(), func(t *testing.T) { migrationPreservesMemory(t, model, os) })
			}
		})
	}
}

func migrationPreservesMemory(t *testing.T, model mem.Model, os OSKind) {
	m, err := New(Config{Model: model, OS: os})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	_, err = m.RunSingle("mig", mem.NodeX86, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(n*8, kernel.VMARead|kernel.VMAWrite, "data")
		if err != nil {
			return err
		}
		// Phase 1 on x86: write.
		for i := 0; i < n; i++ {
			if err := task.Store(base+pgtable.VirtAddr(i*8), 8, uint64(i)+7); err != nil {
				return err
			}
		}
		// Migrate to Arm: read everything back, modify.
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		if task.Node != mem.NodeArm {
			t.Error("task not rebound to arm")
		}
		for i := 0; i < n; i++ {
			v, err := task.Load(base+pgtable.VirtAddr(i*8), 8)
			if err != nil {
				return err
			}
			if v != uint64(i)+7 {
				t.Errorf("after migration mem[%d] = %d, want %d", i, v, uint64(i)+7)
				return nil
			}
			if err := task.Store(base+pgtable.VirtAddr(i*8), 8, v*2); err != nil {
				return err
			}
		}
		// Back-migrate: verify the writes are visible at the origin.
		if err := task.Migrate(mem.NodeX86); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v, err := task.Load(base+pgtable.VirtAddr(i*8), 8)
			if err != nil {
				return err
			}
			if v != (uint64(i)+7)*2 {
				t.Errorf("after back-migration mem[%d] = %d, want %d", i, v, (uint64(i)+7)*2)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs := m.Messages(); msgs == 0 && os != StramashOS {
		t.Error("popcorn migration produced no messages")
	}
}

func TestStramashSharesFramesPopcornReplicates(t *testing.T) {
	run := func(os OSKind) (*kernel.Process, *Machine) {
		m, err := New(Config{Model: mem.Shared, OS: os})
		if err != nil {
			t.Fatal(err)
		}
		var proc *kernel.Process
		_, err = m.RunTasks(TaskSpec{
			Name: "w", Origin: mem.NodeX86, KeepAlive: true,
			Body: func(task *kernel.Task) error {
				proc = task.Proc
				base, err := task.Proc.Mmap(64<<10, kernel.VMARead|kernel.VMAWrite, "d")
				if err != nil {
					return err
				}
				for i := 0; i < 16; i++ {
					if err := task.Store(base+pgtable.VirtAddr(i*mem.PageSize), 8, uint64(i)); err != nil {
						return err
					}
				}
				if err := task.Migrate(mem.NodeArm); err != nil {
					return err
				}
				for i := 0; i < 16; i++ {
					if _, err := task.Load(base+pgtable.VirtAddr(i*mem.PageSize), 8); err != nil {
						return err
					}
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return proc, m
	}

	pproc, _ := run(PopcornSHM)
	sproc, _ := run(StramashOS)

	if pproc.ReplicatedPages == 0 {
		t.Error("popcorn replicated no pages for remote reads")
	}
	if got := pproc.CountReplicatedPages(); got == 0 {
		t.Error("popcorn has no live replicas")
	}
	if sproc.ReplicatedPages != 0 {
		t.Errorf("stramash replicated %d pages; fused design must share frames", sproc.ReplicatedPages)
	}
	if got := sproc.CountReplicatedPages(); got != 0 {
		t.Errorf("stramash has %d live replicas", got)
	}
}

func TestStramashRemoteAllocAddsToBothTables(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS})
	if err != nil {
		t.Fatal(err)
	}
	var proc *kernel.Process
	var va pgtable.VirtAddr
	_, err = m.RunTasks(TaskSpec{
		Name: "remotealloc", Origin: mem.NodeX86, KeepAlive: true,
		Body: func(task *kernel.Task) error {
			base, err := task.Proc.Mmap(1<<20, kernel.VMARead|kernel.VMAWrite, "d")
			if err != nil {
				return err
			}
			proc = task.Proc
			// Touch one page at the origin first so the origin table's
			// upper levels exist for the region.
			if err := task.Store(base, 8, 1); err != nil {
				return err
			}
			if err := task.Migrate(mem.NodeArm); err != nil {
				return err
			}
			// Fresh page faulted on the remote node: remote allocation.
			va = base + 8*mem.PageSize
			return task.Store(va, 8, 42)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.StramashStats()
	if st.RemoteAllocations == 0 {
		t.Error("no remote allocations recorded")
	}
	if st.RemotePTWrites == 0 {
		t.Error("remote kernel did not write the origin's page table")
	}
	// The origin table must now map va (in x86 format) to the same frame.
	meta := proc.MetaIfAny(va)
	if meta == nil || !meta.Valid[mem.NodeX86] || !meta.Valid[mem.NodeArm] {
		t.Fatalf("page not mapped on both nodes: %+v", meta)
	}
	if meta.Frames[0] != meta.Frames[1] {
		t.Errorf("frames differ: %#x vs %#x", meta.Frames[0], meta.Frames[1])
	}
	if meta.FrameOwner[mem.NodeX86] != mem.NodeArm {
		t.Errorf("frame owner = %v, want arm (remote allocated)", meta.FrameOwner[mem.NodeX86])
	}
}

func TestPopcornWriteInvalidatesReplica(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: PopcornSHM})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSingle("inv", mem.NodeX86, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 10); err != nil {
			return err
		}
		// Replicate at remote.
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		if v, _ := task.Load(base, 8); v != 10 {
			t.Errorf("replica = %d, want 10", v)
		}
		// Remote write must invalidate origin and take exclusive.
		if err := task.Store(base, 8, 20); err != nil {
			return err
		}
		meta := task.Proc.MetaIfAny(base)
		if meta.DSM[mem.NodeArm] != kernel.DSMExclusive {
			t.Errorf("remote DSM state = %v, want E", meta.DSM[mem.NodeArm])
		}
		if meta.DSM[mem.NodeX86] != kernel.DSMInvalid {
			t.Errorf("origin DSM state = %v, want I", meta.DSM[mem.NodeX86])
		}
		// Back at origin, the read must see 20 (re-fetch).
		if err := task.Migrate(mem.NodeX86); err != nil {
			return err
		}
		if v, _ := task.Load(base, 8); v != 20 {
			t.Errorf("origin readback = %d, want 20", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFusedNamespaces(t *testing.T) {
	ms, err := New(Config{Model: mem.Shared, OS: StramashOS})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Ctx.Kernels[0].NS != ms.Ctx.Kernels[1].NS {
		t.Error("stramash kernels do not share one namespace set")
	}
	if len(ms.Ctx.Kernels[0].NS.CPUList) == 0 {
		t.Error("fused CPU list empty")
	}

	mp, err := New(Config{Model: mem.Shared, OS: PopcornSHM})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Ctx.Kernels[0].NS == mp.Ctx.Kernels[1].NS {
		t.Error("popcorn kernels share namespaces; baseline must replicate")
	}
}

func TestExitReturnsMemory(t *testing.T) {
	for _, os := range []OSKind{PopcornSHM, StramashOS} {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			m, err := New(Config{Model: mem.Shared, OS: os})
			if err != nil {
				t.Fatal(err)
			}
			freeX := m.Ctx.Kernels[0].Alloc.FreePages()
			freeA := m.Ctx.Kernels[1].Alloc.FreePages()
			_, err = m.RunSingle("exit", mem.NodeX86, func(task *kernel.Task) error {
				base, err := task.Proc.Mmap(256<<10, kernel.VMARead|kernel.VMAWrite, "d")
				if err != nil {
					return err
				}
				for i := 0; i < 64; i++ {
					if err := task.Store(base+pgtable.VirtAddr(i*mem.PageSize), 8, 1); err != nil {
						return err
					}
				}
				if err := task.Migrate(mem.NodeArm); err != nil {
					return err
				}
				for i := 0; i < 64; i++ {
					if _, err := task.Load(base+pgtable.VirtAddr(i*mem.PageSize), 8); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// User frames must be returned (page-table pages and control
			// pages may remain — compare against a loose bound).
			leakX := freeX - m.Ctx.Kernels[0].Alloc.FreePages()
			leakA := freeA - m.Ctx.Kernels[1].Alloc.FreePages()
			if leakX > 40 || leakA > 40 {
				t.Errorf("leaked pages: x86=%d arm=%d", leakX, leakA)
			}
		})
	}
}

func TestRunTasksSharedProcess(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS})
	if err != nil {
		t.Fatal(err)
	}
	var procA, procB *kernel.Process
	_, err = m.RunTasks(
		TaskSpec{Name: "a", Origin: mem.NodeX86, ProcKey: "shared", KeepAlive: true,
			Body: func(task *kernel.Task) error { procA = task.Proc; return nil }},
		TaskSpec{Name: "b", Origin: mem.NodeX86, ProcKey: "shared", KeepAlive: true,
			Body: func(task *kernel.Task) error { procB = task.Proc; return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if procA != procB {
		t.Error("ProcKey did not share the process")
	}
}

func TestOSKindString(t *testing.T) {
	if VanillaOS.String() != "Vanilla" || StramashOS.String() != "Stramash" {
		t.Error("OSKind names wrong")
	}
}
