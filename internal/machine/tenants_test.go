package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/vfs"
)

// TestTenantConfigValidate rejects malformed tenant declarations with a
// typed *ConfigError naming the offending field.
func TestTenantConfigValidate(t *testing.T) {
	base := Config{Model: mem.Shared, OS: StramashOS}
	cases := []struct {
		name  string
		specs []TenantSpec
		field string
	}{
		{"empty name", []TenantSpec{{Name: ""}}, "Tenants[0].Name"},
		{"duplicate name", []TenantSpec{{Name: "a"}, {Name: "a"}}, "Tenants[1].Name"},
		{"negative frames", []TenantSpec{{Name: "a", Budget: cap.Budget{Frames: -1}}}, "Tenants[0].Budget.Frames"},
		{"negative cache", []TenantSpec{{Name: "a", Budget: cap.Budget{CacheFrames: -2}}}, "Tenants[0].Budget.CacheFrames"},
		{"share over 100", []TenantSpec{{Name: "a", Budget: cap.Budget{CPUShare: 101}}}, "Tenants[0].Budget.CPUShare"},
		{"negative share", []TenantSpec{{Name: "a", Budget: cap.Budget{CPUShare: -5}}}, "Tenants[0].Budget.CPUShare"},
		{"unknown grant", []TenantSpec{{Name: "a", Grants: []string{"disk:/x"}}}, "Tenants[0].Grants"},
		{"scoped futex grant", []TenantSpec{{Name: "a", Grants: []string{"futex:/x"}}}, "Tenants[0].Grants"},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Tenants = tc.specs
		_, err := New(cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, ce.Field, tc.field)
		}
	}

	// The valid shapes must boot.
	cfg := base
	cfg.Tenants = []TenantSpec{
		{Name: "a", Budget: cap.Budget{Frames: 64, CacheFrames: 8, CPUShare: 50},
			Grants: []string{"file:/a", "file", "sock", "net", "spawn", "futex", "vma"}},
		{Name: "b"},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("valid tenant config rejected: %v", err)
	}
	if m.Tenant("a") == nil || m.Tenant("b") == nil {
		t.Fatal("declared tenants not reachable via Machine.Tenant")
	}
	if m.Tenant("c") != nil {
		t.Fatal("undeclared tenant resolved")
	}
}

// TestTaskSpecUnknownTenant rejects a task naming a tenant the machine
// does not have.
func TestTaskSpecUnknownTenant(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS,
		Tenants: []TenantSpec{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunTasks(TaskSpec{Name: "ghost", Origin: mem.NodeX86, Tenant: "nobody",
		Body: func(*kernel.Task) error { return nil }})
	if err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("unknown tenant accepted: %v", err)
	}
}

// tenantDiffWorkload is a root workload touching every gated surface:
// anonymous memory, files, futexes.
func tenantDiffWorkload(task *kernel.Task) error {
	heap, err := task.Proc.Mmap(4*mem.PageSize, kernel.VMARead|kernel.VMAWrite, "heap")
	if err != nil {
		return err
	}
	for i := 0; i < 256; i++ {
		if err := task.Store(heap+pgtable.VirtAddr(8*i), 8, uint64(i)); err != nil {
			return err
		}
	}
	if err := task.Mkdir("/data"); err != nil {
		return err
	}
	fd, err := task.OpenFile("/data/f", vfs.OWrite|vfs.OCreate)
	if err != nil {
		return err
	}
	if _, err := task.WriteFileAt(fd, make([]byte, 3*mem.PageSize), 0); err != nil {
		return err
	}
	if err := task.CloseFile(fd); err != nil {
		return err
	}
	if _, err := task.FutexWake(heap, 1); err != nil {
		return err
	}
	return nil
}

// TestTenantRootDifferential pins the observer-effect-free root path at
// the machine level: a root task's cycle count is identical whether the
// machine was booted with a capability namespace or without one.
func TestTenantRootDifferential(t *testing.T) {
	run := func(withTenants bool) Result {
		cfg := Config{Model: mem.Shared, OS: StramashOS, Sched: kernel.SchedTimeSlice}
		if withTenants {
			cfg.Tenants = []TenantSpec{{Name: "bystander",
				Budget: cap.Budget{Frames: 1, CacheFrames: 1, CPUShare: 10},
				Grants: []string{"file:/bystander"}}}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunSingle("root", mem.NodeX86, tenantDiffWorkload)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	tenanted := run(true)
	if plain.End != tenanted.End || plain.Elapsed() != tenanted.Elapsed() {
		t.Errorf("root run diverged: plain machine end %d (elapsed %d), tenanted machine end %d (elapsed %d)",
			plain.End, plain.Elapsed(), tenanted.End, tenanted.Elapsed())
	}
}

// TestTenantRevokeWhileBlockedSocket blocks a tenant server in
// SocketAccept with no client in sight, then revokes its socket grant from
// a root task: the accept must fail with a typed Revoked error instead of
// sleeping forever.
func TestTenantRevokeWhileBlockedSocket(t *testing.T) {
	mk := func(tenants []TenantSpec) Config {
		return Config{Model: mem.Shared, OS: StramashOS, Tenants: tenants}
	}
	srvTen := []TenantSpec{{Name: "srv", Grants: []string{"sock"}}}
	cl, err := NewCluster([]Config{mk(srvTen), mk(nil)}, net.DefaultFabricConfig())
	if err != nil {
		t.Fatal(err)
	}
	ten := cl.Machines[0].Tenant("srv")
	grant, ok := cl.Machines[0].Ctx.Caps.Table.Find(ten, cap.Sock, "")
	if !ok {
		t.Fatal("sock grant not found")
	}

	var acceptErr error
	var revoked int
	_, err = cl.RunTasks(
		ClusterTask{Mach: 0, TaskSpec: TaskSpec{
			Name: "server", Origin: mem.NodeX86, Tenant: "srv",
			Body: func(tk *kernel.Task) error {
				lfd, err := tk.SocketListen(80)
				if err != nil {
					return err
				}
				_, acceptErr = tk.SocketAccept(lfd)
				if acceptErr == nil {
					return fmt.Errorf("accept returned a connection no client ever made")
				}
				return nil
			},
		}},
		ClusterTask{Mach: 0, TaskSpec: TaskSpec{
			Name: "admin", Origin: mem.NodeArm, Start: 1_000_000,
			Body: func(tk *kernel.Task) error {
				var err error
				revoked, err = tk.RevokeCap(grant)
				return err
			},
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The grant and the listener capability derived from it both die.
	if revoked != 2 {
		t.Errorf("revoked %d capabilities, want 2 (grant + listener)", revoked)
	}
	var ce *cap.CapError
	if !errors.As(acceptErr, &ce) {
		t.Fatalf("blocked accept returned %v, want a *cap.CapError", acceptErr)
	}
	if ce.Reason != cap.Revoked {
		t.Errorf("accept failed with reason %v, want revoked", ce.Reason)
	}
	if ten.Stats.Revocations != 2 {
		t.Errorf("tenant revocations = %d, want 2", ten.Stats.Revocations)
	}
}

// TestTenantProcessReuseAcrossTenants rejects sharing one process between
// two tenants through ProcKey.
func TestTenantProcessReuseAcrossTenants(t *testing.T) {
	m, err := New(Config{Model: mem.Shared, OS: StramashOS,
		Tenants: []TenantSpec{{Name: "a"}, {Name: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*kernel.Task) error { return nil }
	_, err = m.RunTasks(
		TaskSpec{Name: "one", Origin: mem.NodeX86, ProcKey: "shared", Tenant: "a", Body: noop},
		TaskSpec{Name: "two", Origin: mem.NodeX86, ProcKey: "shared", Tenant: "b", Body: noop},
	)
	if err == nil || !strings.Contains(err.Error(), "across tenants") {
		t.Fatalf("cross-tenant process reuse accepted: %v", err)
	}
}
