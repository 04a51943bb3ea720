// Package cap is the capability and tenancy substrate of the fused
// kernel: a deny-by-default capability table (every privileged kernel
// object is reached through a handle bound to a cap ID, and revoking the
// capability invalidates every handle derived from it), plus per-tenant
// resource budgets (anonymous frames, page-cache frames in the fused CXL
// pool, CPU quantum shares).
//
// The package is pure bookkeeping: it holds no locks, spends no simulated
// cycles and knows nothing about tasks or scheduling. The kernel decides
// where checks happen (DESIGN.md invariant 13); this keeps the table
// fuzzable against a plain map oracle.
//
// The root tenant is the nil *Tenant: every charge and check method on a
// nil receiver is a no-op returning success, so single-tenant machines
// pay exactly one host-side nil comparison per gate — the same
// observer-effect-free discipline as the nil tracer.
package cap

import (
	"fmt"
	"strings"
)

// CapID names one capability in a Namespace's table. IDs are dense,
// allocated in grant order starting at 1; 0 is never a valid capability.
type CapID uint64

// Kind classifies the object class a capability guards.
type Kind int

const (
	// File guards path-scoped VFS access: open, and every FD-based
	// syscall through a handle derived at open time.
	File Kind = iota
	// Sock guards socket creation (listen/connect) and the per-socket
	// handles derived from it.
	Sock
	// VMA guards anonymous memory mappings (mmap/munmap).
	VMA
	// Futex guards futex wait/wake words.
	Futex
	// Spawn guards clone(): creating new tasks inside the tenant.
	Spawn
	// Net guards claiming the machine's network stack (Task.ClaimNet).
	Net

	kindCount
)

func (k Kind) String() string {
	switch k {
	case File:
		return "file"
	case Sock:
		return "sock"
	case VMA:
		return "vma"
	case Futex:
		return "futex"
	case Spawn:
		return "spawn"
	case Net:
		return "net"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Entry is one capability: a grant of Kind-scoped authority to a tenant,
// possibly derived from a parent capability (an open FD's handle derives
// from the path grant that authorized the open). Revoking an entry
// revokes its whole derivation subtree.
type Entry struct {
	ID     CapID
	Owner  *Tenant
	Kind   Kind
	Scope  string // path prefix for File grants; object label otherwise
	Parent CapID  // 0 for a root grant
	// children lists derived capabilities in creation order, so a revoke
	// walks its subtree deterministically without map iteration.
	children []CapID
	Revoked  bool
}

// Table is the capability table of one machine. Entries are stored
// densely by ID; all ordering (grant lists, revoke walks) follows
// creation order, never map iteration.
type Table struct {
	entries []*Entry
}

// NewTable returns an empty capability table.
func NewTable() *Table { return &Table{} }

// Grant creates a root capability of kind k scoped to scope for owner and
// returns its ID.
func (tb *Table) Grant(owner *Tenant, k Kind, scope string) CapID {
	e := &Entry{ID: CapID(len(tb.entries) + 1), Owner: owner, Kind: k, Scope: scope}
	tb.entries = append(tb.entries, e)
	return e.ID
}

// Derive creates a child capability under parent — the handle-bound-to-
// cap_id step: an open FD or an accepted connection gets its own ID whose
// liveness follows the parent's. Deriving from a dead capability fails
// with a *CapError.
func (tb *Table) Derive(parent CapID, k Kind, scope string) (CapID, error) {
	p := tb.Get(parent)
	if p == nil {
		return 0, &CapError{Op: "derive", Tenant: (*Tenant)(nil).label(), ID: parent,
			Reason: Denied, Detail: scope}
	}
	if p.Revoked {
		return 0, &CapError{Op: "derive", Tenant: p.Owner.label(), ID: parent,
			Reason: Revoked, Detail: scope}
	}
	e := &Entry{ID: CapID(len(tb.entries) + 1), Owner: p.Owner, Kind: k,
		Scope: scope, Parent: parent}
	tb.entries = append(tb.entries, e)
	p.children = append(p.children, e.ID)
	return e.ID, nil
}

// Get returns the entry for id, or nil if id was never granted.
func (tb *Table) Get(id CapID) *Entry {
	if id == 0 || int(id) > len(tb.entries) {
		return nil
	}
	return tb.entries[id-1]
}

// Live reports whether id names a granted, unrevoked capability.
func (tb *Table) Live(id CapID) bool {
	e := tb.Get(id)
	return e != nil && !e.Revoked
}

// Check verifies that handle id is a live capability of kind k owned by
// ten, returning a *CapError (Revoked or Denied) otherwise. It is the
// per-syscall handle gate: fdFile/fdSock route every FD access through
// it.
func (tb *Table) Check(ten *Tenant, id CapID, k Kind, op string) error {
	e := tb.Get(id)
	if e == nil || e.Owner != ten || e.Kind != k {
		return &CapError{Op: op, Tenant: ten.label(), ID: id, Reason: Denied}
	}
	if e.Revoked {
		return &CapError{Op: op, Tenant: ten.label(), ID: id, Reason: Revoked, Detail: e.Scope}
	}
	return nil
}

// Find returns the first live root-or-derived capability of kind k owned
// by ten whose scope covers scope (prefix match for File, exact kind
// match otherwise), scanning in grant order. ok is false when the tenant
// holds no covering capability — the deny-by-default answer.
func (tb *Table) Find(ten *Tenant, k Kind, scope string) (CapID, bool) {
	for _, e := range tb.entries {
		if e.Owner != ten || e.Kind != k || e.Revoked {
			continue
		}
		if k == File && !strings.HasPrefix(scope, e.Scope) {
			continue
		}
		return e.ID, true
	}
	return 0, false
}

// Revoke marks id and its whole derivation subtree revoked and returns
// the revoked IDs in deterministic preorder (parents before children,
// children in creation order). Revoking an unknown or already-revoked
// capability returns nil. The caller (the kernel) is responsible for
// cancelling waiters blocked on the returned IDs before the revoking
// syscall retires — invariant 13.
func (tb *Table) Revoke(id CapID) []CapID {
	e := tb.Get(id)
	if e == nil || e.Revoked {
		return nil
	}
	var out []CapID
	var walk func(*Entry)
	walk = func(e *Entry) {
		if e.Revoked {
			return
		}
		e.Revoked = true
		out = append(out, e.ID)
		for _, c := range e.children {
			walk(tb.Get(c))
		}
	}
	walk(e)
	return out
}

// Namespace is the tenancy root of one machine: the capability table plus
// the tenants it was built for, in creation order.
type Namespace struct {
	Table   *Table
	tenants []*Tenant
}

// NewNamespace returns an empty namespace.
func NewNamespace() *Namespace { return &Namespace{Table: NewTable()} }

// NewTenant creates a tenant with the given budget and adds it to the
// namespace. Names are expected to be unique (machine.Config.Validate
// enforces it for configured tenants).
func (ns *Namespace) NewTenant(name string, b Budget) *Tenant {
	t := &Tenant{Name: name, Budget: b}
	ns.tenants = append(ns.tenants, t)
	return t
}

// Tenant returns the tenant with the given name, or nil.
func (ns *Namespace) Tenant(name string) *Tenant {
	for _, t := range ns.tenants {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Tenants returns the namespace's tenants in creation order.
func (ns *Namespace) Tenants() []*Tenant { return ns.tenants }
