package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/redisapp"
)

// fileioCmd runs the filesys extra's two 1-core cells: an x86 and an Arm
// worker sharing one file under the fused and the popcorn page cache.
func fileioCmd(*flag.FlagSet) job {
	return func(w io.Writer) error {
		res, err := experiments.FilesysCells(1, experiments.Quick)
		if err != nil {
			return err
		}
		return gate(w, res, res.Rows, res.CellErrors)
	}
}

// clusterCmd runs one cell of the cluster extra: a load balancer and
// -servers redis server machines under one personality.
func clusterCmd(fs *flag.FlagSet) job {
	pers := personalityFlags(fs)
	servers := fs.Int("servers", 2, "redis server machines behind the load balancer")
	scale := scaleFlag(fs)
	return func(w io.Writer) error {
		osKind, model, err := pers.parse()
		if err != nil {
			return err
		}
		res, err := experiments.ClusterCell(osKind, model, *servers, *scale)
		if err != nil {
			return err
		}
		return gate(w, res, res.Rows, res.CellErrors)
	}
}

// prodCmd runs one cell of the redisprod extra: the multi-core production
// redis server with AOF persistence, whose check includes the replay of
// the log against the live keyspace.
func prodCmd(fs *flag.FlagSet) job {
	kindName := fs.String("kind", "sharded", "keyspace regime: sharded or locked")
	regimeName := regimeFlag(fs)
	cores := fs.Int("cores", 2, "server cores per node (2x workers)")
	scale := scaleFlag(fs)
	return func(w io.Writer) error {
		kind, err := lookup("keyspace", *kindName, map[string]redisapp.KeyspaceKind{"sharded": redisapp.KSSharded, "locked": redisapp.KSLocked})
		if err != nil {
			return err
		}
		regime, err := lookup("page-cache regime", *regimeName, regimes)
		if err != nil {
			return err
		}
		res, err := experiments.RedisprodCell(kind, regime, *cores, *scale)
		if err != nil {
			return err
		}
		return gate(w, res, res.Rows, res.CellErrors)
	}
}

// tenantsCmd runs one cell of the tenants extra, a victim plus n-1 noisy
// neighbors, after the victim's solo baseline.
func tenantsCmd(fs *flag.FlagSet) job {
	n := fs.Int("n", 3, "tenants on the machine: a victim plus n-1 noisy neighbors")
	regimeName := regimeFlag(fs)
	return func(w io.Writer) error {
		regime, err := lookup("page-cache regime", *regimeName, regimes)
		if err != nil {
			return err
		}
		res, err := experiments.TenantsCell(regime, *n, experiments.Quick)
		if err != nil {
			return err
		}
		return gate(w, res, res.Rows, res.CellErrors)
	}
}

// gate prints res the way stramash-bench renders its experiment, then
// runs the experiment's per-cell check on every row; any failure is an
// error.
func gate[Row any](w io.Writer, res experiments.Result, rows []Row, check func(Row) []string) error {
	fmt.Fprintf(w, "== %s ==\n%s", res.Name(), res.Render())
	var failed []string
	for _, row := range rows {
		failed = append(failed, check(row)...)
	}
	if len(failed) == 0 {
		fmt.Fprintln(w, "cell checks: passed")
		return nil
	}
	for _, e := range failed {
		fmt.Fprintf(w, "  - %s\n", e)
	}
	return fmt.Errorf("%d cell check(s) failed", len(failed))
}
