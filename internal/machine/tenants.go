package machine

import (
	"fmt"
	"strings"

	"repro/internal/cap"
)

// TenantSpec declares one tenant of a multi-tenant machine: a name, the
// resource budget the kernel enforces, and the capability grants that
// populate the tenant's slice of the cap table at boot. Grants use a tiny
// textual form so experiment configs stay declarative:
//
//	"file:/t0"  — files whose path starts with /t0 (open/create/unlink)
//	"file"      — the whole namespace (prefix "")
//	"sock"      — listen/connect (per-port handles derive from this)
//	"net"       — claim the machine's NIC
//	"spawn"     — clone new tasks
//	"futex"     — futex wait/wake
//	"vma"       — anonymous mmap
type TenantSpec struct {
	Name   string
	Budget cap.Budget
	Grants []string
}

// parseGrant splits one grant string into its capability kind and scope.
func parseGrant(g string) (cap.Kind, string, error) {
	kind, scope := g, ""
	if i := strings.IndexByte(g, ':'); i >= 0 {
		kind, scope = g[:i], g[i+1:]
	}
	switch kind {
	case "file":
		return cap.File, scope, nil
	case "sock", "net", "spawn", "futex", "vma":
		if scope != "" {
			return 0, "", fmt.Errorf("grant %q takes no scope", g)
		}
		switch kind {
		case "sock":
			return cap.Sock, "", nil
		case "net":
			return cap.Net, "", nil
		case "spawn":
			return cap.Spawn, "", nil
		case "futex":
			return cap.Futex, "", nil
		default:
			return cap.VMA, "", nil
		}
	}
	return 0, "", fmt.Errorf("unknown grant kind %q", kind)
}

// validateTenants rejects malformed tenant specs before any hardware is
// built: duplicate or empty names, negative budgets, out-of-range CPU
// shares, unparseable grants.
func validateTenants(specs []TenantSpec) error {
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		field := fmt.Sprintf("Tenants[%d]", i)
		if s.Name == "" {
			return &ConfigError{Field: field + ".Name", Value: s.Name, Reason: "must not be empty"}
		}
		if seen[s.Name] {
			return &ConfigError{Field: field + ".Name", Value: s.Name, Reason: "duplicate tenant name"}
		}
		seen[s.Name] = true
		if s.Budget.Frames < 0 {
			return &ConfigError{Field: field + ".Budget.Frames", Value: s.Budget.Frames, Reason: "must not be negative"}
		}
		if s.Budget.CacheFrames < 0 {
			return &ConfigError{Field: field + ".Budget.CacheFrames", Value: s.Budget.CacheFrames, Reason: "must not be negative"}
		}
		if s.Budget.CPUShare < 0 || s.Budget.CPUShare > 100 {
			return &ConfigError{Field: field + ".Budget.CPUShare", Value: s.Budget.CPUShare, Reason: "must be 0..100"}
		}
		for _, g := range s.Grants {
			if _, _, err := parseGrant(g); err != nil {
				return &ConfigError{Field: field + ".Grants", Value: g, Reason: err.Error()}
			}
		}
	}
	return nil
}

// buildTenants constructs the machine's capability namespace from its
// tenant specs. Pure host-side construction — no simulated state is
// touched, so machines without tenants are cycle-identical to builds that
// predate the capability layer (ctx.Caps stays nil and every kernel gate
// is one nil check).
func (m *Machine) buildTenants() {
	if len(m.Cfg.Tenants) == 0 {
		return
	}
	ns := cap.NewNamespace()
	for _, s := range m.Cfg.Tenants {
		ten := ns.NewTenant(s.Name, s.Budget)
		for _, g := range s.Grants {
			k, scope, _ := parseGrant(g) // Validate already vetted
			ns.Table.Grant(ten, k, scope)
		}
	}
	m.Ctx.Caps = ns
}

// Tenant returns the named tenant, or nil if the machine has no such
// tenant (including machines built without a Tenants config).
func (m *Machine) Tenant(name string) *cap.Tenant {
	if m.Ctx.Caps == nil {
		return nil
	}
	return m.Ctx.Caps.Tenant(name)
}
