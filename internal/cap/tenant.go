package cap

import "fmt"

// Budget is the resource envelope of one tenant. Zero fields mean
// "unlimited" — the root tenant's implicit budget.
type Budget struct {
	// Frames caps resident anonymous pages (charged when a virtual page
	// first becomes valid in kernel.MapFrame, uncharged on unmap and
	// process teardown).
	Frames int64
	// CacheFrames caps page-cache frames in the shared pool (charged per
	// frame the VFS page cache allocates on the tenant's behalf,
	// uncharged when the inode's pages are dropped).
	CacheFrames int64
	// CPUShare scales the tenant's scheduler quantum under SchedTimeSlice,
	// in percent of the machine quantum. 0 means 100.
	CPUShare int
}

// Stats are the per-tenant counters the tenants experiment's metrics
// always carry (caps_checked/… and the rest).
// They are simulated-deterministic: every increment happens at a
// serial- or atomic-bracketed gate, never on a host-racy path.
type Stats struct {
	// CapsChecked counts capability gate evaluations (handle checks and
	// path lookups).
	CapsChecked int64
	// Denials counts gates that failed with Denied or Revoked.
	Denials int64
	// Revocations counts capabilities of this tenant that were revoked
	// (subtree members included).
	Revocations int64
	// FramesCharged / CacheCharged count successful budget charges
	// (cumulative, not the live gauge).
	FramesCharged int64
	CacheCharged  int64
	// QuotaHits counts charges refused because a gauge was at budget.
	QuotaHits int64
}

// Tenant is one isolation domain. The nil *Tenant is the root tenant:
// all methods are nil-safe and degenerate to "allow, charge nothing", so
// kernel gates cost a single pointer comparison on the single-tenant
// path.
type Tenant struct {
	Name   string
	Budget Budget
	Stats  Stats

	// frames / cacheFrames are the live gauges the budgets bound.
	frames      int64
	cacheFrames int64
}

// label names the tenant in error messages; the nil (root) tenant prints
// as "root".
func (t *Tenant) label() string {
	if t == nil {
		return "root"
	}
	return t.Name
}

// Share returns the tenant's CPU quantum share in percent (100 for root
// and for tenants that left it unset).
func (t *Tenant) Share() int {
	if t == nil || t.Budget.CPUShare <= 0 {
		return 100
	}
	return t.Budget.CPUShare
}

// ChargeFrames charges n anonymous frames against the budget, failing
// with a BudgetExhausted *CapError (and counting a QuotaHit) when the
// gauge would pass the cap. Root never fails.
func (t *Tenant) ChargeFrames(n int64) error {
	if t == nil {
		return nil
	}
	if t.Budget.Frames > 0 && t.frames+n > t.Budget.Frames {
		t.Stats.QuotaHits++
		return &CapError{Op: "map-frame", Tenant: t.Name, Reason: BudgetExhausted,
			Detail: fmt.Sprintf("frames %d/%d", t.frames, t.Budget.Frames)}
	}
	t.frames += n
	t.Stats.FramesCharged += n
	return nil
}

// UnchargeFrames releases n anonymous frames.
func (t *Tenant) UnchargeFrames(n int64) {
	if t == nil {
		return
	}
	t.frames -= n
	if t.frames < 0 {
		t.frames = 0
	}
}

// ChargeCache charges n page-cache frames, with the same semantics as
// ChargeFrames.
func (t *Tenant) ChargeCache(n int64) error {
	if t == nil {
		return nil
	}
	if t.Budget.CacheFrames > 0 && t.cacheFrames+n > t.Budget.CacheFrames {
		t.Stats.QuotaHits++
		return &CapError{Op: "page-cache", Tenant: t.Name, Reason: BudgetExhausted,
			Detail: fmt.Sprintf("cache frames %d/%d", t.cacheFrames, t.Budget.CacheFrames)}
	}
	t.cacheFrames += n
	t.Stats.CacheCharged += n
	return nil
}

// UnchargeCache releases n page-cache frames.
func (t *Tenant) UnchargeCache(n int64) {
	if t == nil {
		return
	}
	t.cacheFrames -= n
	if t.cacheFrames < 0 {
		t.cacheFrames = 0
	}
}

// FramesInUse returns the live anonymous-frame gauge.
func (t *Tenant) FramesInUse() int64 {
	if t == nil {
		return 0
	}
	return t.frames
}

// CacheInUse returns the live page-cache gauge.
func (t *Tenant) CacheInUse() int64 {
	if t == nil {
		return 0
	}
	return t.cacheFrames
}
