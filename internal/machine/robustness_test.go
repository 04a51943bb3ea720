package machine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
)

func TestMultipleCoresPerNode(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks of one process on the same node, different cores, hammer
	// adjacent words of a shared page.
	const n = 200
	body := func(core int) func(task *kernel.Task) error {
		return func(task *kernel.Task) error {
			task.Core = core
			task.Rebind(task.Node) // rebind the port to the chosen core
			var base pgtable.VirtAddr
			if core == 0 {
				b, err := task.Proc.Mmap(mem.PageSize, kernel.VMARead|kernel.VMAWrite, "shared")
				if err != nil {
					return err
				}
				base = b
			} else {
				base = kernel.UserBase
			}
			off := pgtable.VirtAddr(core * 8)
			for i := 0; i < n; i++ {
				if err := task.Store(base+off, 8, uint64(i)); err != nil {
					return err
				}
				if _, err := task.Load(base+off, 8); err != nil {
					return err
				}
			}
			v, err := task.Load(base+off, 8)
			if err != nil {
				return err
			}
			if v != n-1 {
				t.Errorf("core %d final value %d, want %d", core, v, n-1)
			}
			return nil
		}
	}
	_, err = m.RunTasks(
		TaskSpec{Name: "c0", Origin: mem.NodeX86, ProcKey: "mc", KeepAlive: true, Body: body(0)},
		TaskSpec{Name: "c1", Origin: mem.NodeX86, ProcKey: "mc", KeepAlive: true, Start: 5000, Body: body(1)},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// TestTaskBodyErrorPropagates checks that a task's error reaches the
// caller with its cause, through both entry points of the one task runner.
// When task "a" fails and task "b" then waits forever for it, the engine
// deadlocks naming only b; the runner must still report a's own error
// first (errors.Is reaches it) and keep b in the message.
func TestTaskBodyErrorPropagates(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSingle("bad", mem.NodeX86, func(task *kernel.Task) error {
		// Access with no VMA: a segfault, which must surface as an error,
		// not a panic or silence.
		_, err := task.Load(0xDEADBEEF000, 8)
		return err
	})
	if err == nil {
		t.Fatal("segfault did not propagate")
	}
	if !strings.Contains(err.Error(), "segfault") {
		t.Errorf("error lost its cause: %v", err)
	}

	sentinel := errors.New("task a gave up")
	a := TaskSpec{Name: "a", Origin: mem.NodeX86, Body: func(*kernel.Task) error { return sentinel }}
	b := TaskSpec{Name: "b", Origin: mem.NodeArm, Body: func(task *kernel.Task) error {
		task.Th.Block("wait-for-a")
		return nil
	}}
	for _, r := range []struct {
		name string
		run  func() error
	}{
		{"Machine.RunTasks", func() error {
			m, err := New(Config{Model: mem.Shared, OS: StramashOS})
			if err != nil {
				return err
			}
			_, err = m.RunTasks(a, b)
			return err
		}},
		{"Cluster.RunTasks", func() error {
			cfg := Config{Model: mem.Shared, OS: StramashOS}
			cl, err := NewCluster([]Config{cfg, cfg}, net.DefaultFabricConfig())
			if err != nil {
				return err
			}
			_, err = cl.RunTasks(ClusterTask{Mach: 0, TaskSpec: a}, ClusterTask{Mach: 1, TaskSpec: b})
			return err
		}},
	} {
		t.Run(r.name, func(t *testing.T) {
			err := r.run()
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want it to wrap task a's error", err)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, `machine: task "a": task a gave up`) {
				t.Errorf("task a's error is not reported first: %v", err)
			}
			if !strings.Contains(msg, "b(wait-for-a)") {
				t.Errorf("error no longer names the blocked thread b: %v", err)
			}
		})
	}
}

func TestSeparatedModelEndToEnd(t *testing.T) {
	// The Separated (NUMA-like) model: remote accesses still work through
	// the coherent interconnect; memory contents stay correct.
	m, err := New(Config{Model: mem.Separated, OS: StramashOS})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSingle("sep", mem.NodeX86, func(task *kernel.Task) error {
		base, err := task.Proc.Mmap(256<<10, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		for i := 0; i < 256; i++ {
			if err := task.Store(base+pgtable.VirtAddr(i*1024), 8, uint64(i)*3); err != nil {
				return err
			}
		}
		if err := task.Migrate(mem.NodeArm); err != nil {
			return err
		}
		for i := 0; i < 256; i++ {
			v, err := task.Load(base+pgtable.VirtAddr(i*1024), 8)
			if err != nil {
				return err
			}
			if v != uint64(i)*3 {
				t.Errorf("[%d] = %d", i, v)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// On the Separated model the arm node's reads of x86-resident frames
	// must have hit remote memory.
	if st := m.CacheStats(mem.NodeArm); st.RemoteMemHits == 0 {
		t.Error("no remote memory hits recorded on the Separated model")
	}
}

func TestTasksAcrossDifferentOrigins(t *testing.T) {
	// Processes originating on the Arm node work symmetrically.
	m, err := New(Config{Model: mem.Shared, OS: StramashOS})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunSingle("armorigin", mem.NodeArm, func(task *kernel.Task) error {
		if task.Node != mem.NodeArm {
			t.Errorf("task started on %v", task.Node)
		}
		base, err := task.Proc.Mmap(64<<10, kernel.VMARead|kernel.VMAWrite, "d")
		if err != nil {
			return err
		}
		if err := task.Store(base, 8, 7); err != nil {
			return err
		}
		if err := task.Migrate(mem.NodeX86); err != nil {
			return err
		}
		v, err := task.Load(base, 8)
		if err != nil {
			return err
		}
		if v != 7 {
			t.Errorf("cross read = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessengerPlacementPerModel(t *testing.T) {
	// §8.2: the messaging area lands in the CXL pool on the Shared model
	// and in x86-local memory otherwise.
	shared, err := New(Config{Model: mem.Shared, OS: PopcornSHM})
	if err != nil {
		t.Fatal(err)
	}
	pool := shared.Plat.Layout().SharedRegions()[0]
	if base := shared.msgAreaBase(); !pool.Contains(base) {
		t.Errorf("Shared-model message area at %#x, outside the pool", base)
	}
	sep, err := New(Config{Model: mem.Separated, OS: PopcornSHM})
	if err != nil {
		t.Fatal(err)
	}
	if base := sep.msgAreaBase(); sep.Plat.Layout().Classify(mem.NodeX86, base) != mem.Local {
		t.Error("Separated-model message area not x86-local")
	}
	if base := sep.msgAreaBase(); sep.Plat.Layout().Classify(mem.NodeArm, base) != mem.Remote {
		t.Error("Separated-model message area not remote for arm")
	}
}
