package machine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pgtable"
)

// TestConfigValidate is the table over every field Validate guards: zero
// values are defaults and pass; out-of-range values name their field in a
// typed *ConfigError.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" = valid
	}{
		{"zero", Config{}, ""},
		{"max-cores", Config{Cores: MaxCores}, ""},
		{"timeslice", Config{Cores: 4, Sched: kernel.SchedTimeSlice, SchedQuantum: 1000}, ""},
		{"negative-cores", Config{Cores: -1}, "Cores"},
		{"too-many-cores", Config{Cores: MaxCores + 1}, "Cores"},
		{"bad-os-high", Config{OS: OSKind(99)}, "OS"},
		{"bad-os-low", Config{OS: OSKind(-1)}, "OS"},
		{"bad-sched", Config{Sched: kernel.SchedPolicy(7)}, "Sched"},
		{"negative-quantum", Config{SchedQuantum: -1}, "SchedQuantum"},
		{"negative-l3", Config{L3Size: -1}, "L3Size"},
		{"negative-l2", Config{L2Size: -1}, "L2Size"},
		{"negative-l3-per-node", Config{L3PerNode: &[2]int{4 << 20, -1}}, "L3PerNode"},
		{"l3-sets-not-power-of-two", Config{L3Size: 3 << 20}, "L3Size"},
		{"l2-no-sets", Config{L2Size: 1000}, "L2Size"},
		{"l3-per-node-sets-not-power-of-two", Config{L3PerNode: &[2]int{4 << 20, 3 << 20}}, "L3PerNode"},
		{"l3-per-node-no-l3", Config{L3PerNode: &[2]int{16 << 20, 0}}, ""},
		{"scaled-hierarchy", Config{L3Size: 256 << 10, L2Size: 128 << 10}, ""},
		{"negative-ipi", Config{IPIMicros: -2}, "IPIMicros"},
		{"negative-rtt", Config{NetRTTMicros: -75}, "NetRTTMicros"},
		{"negative-cpi", Config{CPI: [2]float64{-0.5, 0}}, "CPI"},
		{"negative-clock", Config{ClockHz: [2]int64{0, -1}}, "ClockHz"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			if ce.Error() == "" {
				t.Error("empty error string")
			}
		})
	}
}

// TestNewRejectsInvalidConfig: New must surface Validate's typed error
// before building any hardware.
func TestNewRejectsInvalidConfig(t *testing.T) {
	_, err := New(Config{Model: mem.Shared, OS: StramashOS, Cores: -3})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Cores" {
		t.Fatalf("New(Cores: -3) = %v, want *ConfigError on Cores", err)
	}
	// Cache sizes the cache model cannot build: an error, not a panic in
	// the model and not a machine silently missing the level.
	_, err = New(Config{Model: mem.Shared, OS: StramashOS, L3Size: 3 << 20})
	if !errors.As(err, &ce) || ce.Field != "L3Size" {
		t.Fatalf("New(L3Size: 3 MiB) = %v, want *ConfigError on L3Size", err)
	}
	_, err = New(Config{Model: mem.Shared, OS: StramashOS, L2Size: 1000})
	if !errors.As(err, &ce) || ce.Field != "L2Size" {
		t.Fatalf("New(L2Size: 1000) = %v, want *ConfigError on L2Size", err)
	}
}

// TestRunTasksRejectsBadCore: task placement outside the configured core
// range fails up front, before any process is created.
func TestRunTasksRejectsBadCore(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []int{-1, 2} {
		_, err := m.RunTasks(TaskSpec{Name: "bad", Origin: mem.NodeX86, Core: core,
			Body: func(*kernel.Task) error { return nil }})
		if err == nil {
			t.Errorf("RunTasks accepted core %d on a 2-core node", core)
		}
	}
}

// TestArmOriginSetupUsesArmCPU is the regression test for the phase-1 setup
// path: an Arm-origin process must be created through the Arm node's CPU 0
// (its kernel's own caches), not through the x86 boot CPU. The task body is
// empty and teardown is skipped, so every Arm cache access below comes from
// process creation itself.
func TestArmOriginSetupUsesArmCPU(t *testing.T) {
	for _, os := range allOSKinds() {
		os := os
		t.Run(os.String(), func(t *testing.T) {
			m, err := New(Config{Model: mem.Shared, OS: os})
			if err != nil {
				t.Fatal(err)
			}
			before := m.CacheStats(mem.NodeArm).L1DAccesses
			if _, err := m.RunTasks(TaskSpec{Name: "noop", Origin: mem.NodeArm, KeepAlive: true,
				Body: func(*kernel.Task) error { return nil }}); err != nil {
				t.Fatal(err)
			}
			after := m.CacheStats(mem.NodeArm).L1DAccesses
			if after == before {
				t.Errorf("Arm-origin process setup issued no Arm L1D accesses (ran on the x86 CPU?)")
			}
		})
	}
}

// TestMESIMultiCoreSharing drives two runnable tasks per node over the same
// process pages across two strictly scheduled cores, checking the MESI
// safety invariant (DESIGN.md §5, invariant 1) during and after the run.
// This is the first workload where the coherence protocol sees per-node
// multi-core interleavings produced by a real scheduler rather than a
// synthetic access schedule.
func TestMESIMultiCoreSharing(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS, Cores: 2,
		Sched: kernel.SchedTimeSlice, SchedQuantum: 2000})
	if err != nil {
		t.Fatal(err)
	}
	const bufBytes = 8 << 10
	var base [2]pgtable.VirtAddr
	var mesiErr error
	check := func() {
		if mesiErr == nil {
			mesiErr = m.Plat.Caches.CheckMESI()
		}
	}

	var specs []TaskSpec
	for n := 0; n < 2; n++ {
		node := mem.NodeID(n)
		for core := 0; core < 2; core++ {
			core := core
			specs = append(specs, TaskSpec{
				Name:    fmt.Sprintf("shr-n%d-c%d", n, core),
				Origin:  node,
				Core:    core,
				ProcKey: fmt.Sprintf("proc%d", n),
				Body: func(task *kernel.Task) error {
					if core == 0 {
						b, err := task.Proc.Mmap(bufBytes, kernel.VMARead|kernel.VMAWrite, "shared")
						if err != nil {
							return err
						}
						base[node] = b
					} else {
						// The sibling core spins (in simulated time) until
						// core 0 has published the shared buffer.
						for base[node] == 0 {
							task.Compute(200)
						}
					}
					b := base[node]
					for i := 0; i < 400; i++ {
						off := pgtable.VirtAddr((i % (bufBytes / 64)) * 64)
						if err := task.Store(b+off, 8, uint64(i)); err != nil {
							return err
						}
						// Also read a line the sibling core is writing.
						alt := pgtable.VirtAddr(((i + 7) % (bufBytes / 64)) * 64)
						if _, err := task.Load(b+alt, 8); err != nil {
							return err
						}
						if i%16 == 0 {
							check()
						}
					}
					return nil
				},
			})
		}
	}
	if _, err := m.RunTasks(specs...); err != nil {
		t.Fatal(err)
	}
	check()
	if mesiErr != nil {
		t.Fatalf("MESI invariant violated: %v", mesiErr)
	}
	// Both cores of both nodes must actually have issued traffic.
	for n := 0; n < 2; n++ {
		for c := 0; c < 2; c++ {
			if m.Plat.Caches.CoreStats(mem.NodeID(n), c).L1DAccesses == 0 {
				t.Errorf("node %d core %d saw no L1D traffic", n, c)
			}
		}
	}
}

// TestTimeSliceMachineDeterminism: the strictly scheduled multi-task
// machine retires identical cycles across fresh runs.
func TestTimeSliceMachineDeterminism(t *testing.T) {
	run := func() []int64 {
		m, err := New(Config{Model: mem.Shared, OS: StramashOS, Cores: 2,
			Sched: kernel.SchedTimeSlice, SchedQuantum: 2000})
		if err != nil {
			t.Fatal(err)
		}
		var specs []TaskSpec
		for i := 0; i < 4; i++ {
			i := i
			specs = append(specs, TaskSpec{
				Name:   fmt.Sprintf("det%d", i),
				Origin: mem.NodeX86,
				Core:   i % 2,
				Body: func(task *kernel.Task) error {
					b, err := task.Proc.Mmap(16<<10, kernel.VMARead|kernel.VMAWrite, "buf")
					if err != nil {
						return err
					}
					for off := 0; off < 16<<10; off += 64 {
						if err := task.Store(b+pgtable.VirtAddr(off), 8, uint64(off)); err != nil {
							return err
						}
					}
					task.Compute(30_000)
					return nil
				},
			})
		}
		rs, err := m.RunTasks(specs...)
		if err != nil {
			t.Fatal(err)
		}
		ends := make([]int64, len(rs))
		for i, r := range rs {
			ends[i] = int64(r.End)
		}
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("task %d finished at %d then %d across identical runs", i, a[i], b[i])
		}
	}
}
