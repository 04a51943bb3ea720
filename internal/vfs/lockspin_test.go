package vfs_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// appendRace runs four appenders, two per node, each writing records to
// one O_APPEND file, so that they contend for the inode's append lock and
// the page-cache locks. It renders every number a parked lock spin could
// move. With spin the engine forbids parks (sim.Engine.ForbidParks), so
// the lock spins spin: the reference.
func appendRace(t *testing.T, regime vfs.Regime, spin bool) (string, sim.EngineStats) {
	t.Helper()
	cfg := machine.Config{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
		Cores: 2, Sched: kernel.SchedTimeSlice, SchedQuantum: 10_000}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spin {
		m.Plat.Engine.ForbidParks()
	}
	const path = "/aof"
	if _, err := m.RunSingle("setup", mem.NodeX86, func(tk *kernel.Task) error {
		fd, err := tk.CreateFile(path)
		if err != nil {
			return err
		}
		return tk.CloseFile(fd)
	}); err != nil {
		t.Fatal(err)
	}
	specs := make([]machine.TaskSpec, 4)
	for w := range specs {
		specs[w] = machine.TaskSpec{
			Name: fmt.Sprintf("a%d", w), Origin: mem.NodeID(w % 2), Core: w / 2,
			Body: func(tk *kernel.Task) error {
				fd, err := tk.OpenFile(path, vfs.OWrite|vfs.OAppend)
				if err != nil {
					return err
				}
				rec := []byte(strings.Repeat(fmt.Sprint(w), 700))
				for range 12 {
					if _, err := tk.WriteFile(fd, rec); err != nil {
						return err
					}
				}
				return tk.CloseFile(fd)
			},
		}
	}
	rs, err := m.RunTasks(specs...)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s %d..%d %+v\n", r.Name, r.Start, r.End, r.Task.Stats)
	}
	fmt.Fprintf(&b, "files %+v\n", m.FileStats())
	for n := mem.NodeID(0); n < 2; n++ {
		fmt.Fprintf(&b, "%v cache %+v\n", n, m.CacheStats(n))
		for c := 0; c < m.Sched.Cores(n); c++ {
			cpu := m.Sched.CPUOf(n, c)
			fmt.Fprintf(&b, "%v cpu%d dispatches=%d preemptions=%d busy=%d\n", n, c, cpu.Dispatches, cpu.Preemptions, cpu.Busy)
		}
	}
	es := m.EngineStats()
	fmt.Fprintf(&b, "engine segments %d cycles %d\n", es.SerialSegments, es.SerialCycles)
	return b.String(), es
}

// TestAppendLockParksExactly holds the append and page-cache lock spins,
// in both regimes, to the spinning run's every number, and requires that
// they parked.
func TestAppendLockParksExactly(t *testing.T) {
	for _, regime := range []vfs.Regime{vfs.RegimeFused, vfs.RegimePopcorn} {
		t.Run(regime.String(), func(t *testing.T) {
			want, spun := appendRace(t, regime, true)
			got, parked := appendRace(t, regime, false)
			if got != want {
				t.Fatalf("parked lock spins diverge from spinning\n--- parked\n%s--- spinning\n%s", got, want)
			}
			if spun.LockYields == 0 || spun.LockReplayed != 0 {
				t.Fatalf("spinning run: %d lock-spin yield points run, %d replayed; want some run, none replayed",
					spun.LockYields, spun.LockReplayed)
			}
			t.Logf("spinning: %d lock-spin yield points; parked: %d run, %d replayed",
				spun.LockYields, parked.LockYields, parked.LockReplayed)
			if parked.LockReplayed == 0 {
				t.Fatalf("parked run replayed no lock-spin yield point (%d run)", parked.LockYields)
			}
		})
	}
}

// TestAppendLockDeadlockNamesTheLock: an appender that exits holding the
// append lock leaves the next one parked with nothing to disturb it, and
// the run ends in the engine's deadlock error naming the waiter and the
// lock, not in a spin that never ends.
func TestAppendLockDeadlockNamesTheLock(t *testing.T) {
	plat := hw.NewPlatform(hw.DefaultConfig(mem.Shared))
	ino := &vfs.Inode{Ino: 1}
	plat.Engine.Spawn("holder", 0, func(th *sim.Thread) {
		ino.LockAppend(plat.NewPort(mem.NodeX86, 0, th))
	})
	plat.Engine.Spawn("appender", 100, func(th *sim.Thread) {
		ino.LockAppend(plat.NewPort(mem.NodeArm, 0, th))
		t.Error("the appender took a lock its holder never released")
	})
	err := plat.Engine.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "appender(lock:append)") {
		t.Fatalf("Run = %v, want the deadlock error naming appender(lock:append)", err)
	}
}
