package main

import (
	"flag"
	"fmt"

	"repro/internal/cap"
	"repro/internal/experiments"
	"repro/internal/vfs"
)

// tenantsCmd defines the tenants subcommand.
func tenantsCmd(fs *flag.FlagSet) func() {
	n := fs.Int("n", 3, "tenants on the machine: a victim plus n-1 noisy neighbors")
	regime := regimeFlag(fs)
	return func() { fatal(runTenants(*n, parseRegime(*regime))) }
}

// runTenants boots one multi-tenant fused machine with n tenants (a victim
// plus n-1 noisy neighbors) under the capability layer, plus a solo
// baseline machine for the victim's undisturbed latency, and prints every
// tenant's kernel counters. It exits non-zero when the isolation claims do
// not hold: the victim missing its p50 SLO (a fixed multiple of solo), a
// rogue never being denied at the victim's files, budgets never refusing a
// charge, or the mid-run revocation not reaching the rogue's live
// descriptor. CI's multi-tenant smoke gates on this.
func runTenants(n int, regime vfs.Regime) error {
	if n < 2 {
		return fmt.Errorf("tenants needs at least 2 tenants (a victim and a rogue), got %d", n)
	}
	solo, err := experiments.RunTenantsCell(regime, 1, experiments.Quick)
	if err != nil {
		return err
	}
	row, err := experiments.RunTenantsCell(regime, n, experiments.Quick)
	if err != nil {
		return err
	}
	fmt.Printf("tenants: %d on one fused machine, %s page cache (victim solo baseline alongside)\n\n", n, regime)
	fmt.Printf("victim: %d ops, p50 %d cycles (solo %d), p99 %d cycles\n",
		row.Done, int64(row.P50), int64(solo.P50), int64(row.P99))
	fmt.Printf("observed by rogues: %d denials, %d quota refusals, %d revoked-descriptor errors\n\n",
		row.DeniedSeen, row.QuotaSeen, row.RevokedSeen)
	for i, name := range row.Names {
		st := row.Stats[i]
		fmt.Printf("tenant %-8s caps checked %6d | denials %4d | revocations %d | frames charged %4d | cache charged %4d | quota hits %4d\n",
			name, st.CapsChecked, st.Denials, st.Revocations, st.FramesCharged, st.CacheCharged, st.QuotaHits)
	}
	fmt.Println()

	rogues := cap.Stats{}
	for i, name := range row.Names {
		if name != "victim" {
			st := row.Stats[i]
			rogues.Denials += st.Denials
			rogues.Revocations += st.Revocations
			rogues.QuotaHits += st.QuotaHits
		}
	}
	switch {
	case row.Done != solo.Done:
		return fmt.Errorf("victim completed %d ops, want %d", row.Done, solo.Done)
	case rogues.Denials == 0:
		return fmt.Errorf("no rogue was ever denied — the capability gates did not fire")
	case rogues.QuotaHits == 0:
		return fmt.Errorf("no budget ever refused a charge — the quotas did not fire")
	case rogues.Revocations == 0 || row.RevokedSeen == 0:
		return fmt.Errorf("revocation did not reach the rogue (revoked %d caps, %d observed errors)",
			rogues.Revocations, row.RevokedSeen)
	case solo.P50 > 0 && row.P50 > experiments.TenantsSLOFactor*solo.P50:
		return fmt.Errorf("victim p50 %d breaches the %dx solo SLO (solo %d)",
			int64(row.P50), experiments.TenantsSLOFactor, int64(solo.P50))
	}
	fmt.Printf("isolation: victim p50 within %dx solo SLO; denials, quotas and revocation all enforced\n",
		experiments.TenantsSLOFactor)
	return nil
}
