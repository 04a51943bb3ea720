// Package npb re-implements the four NAS Parallel Benchmarks the paper
// evaluates — IS (integer sort), CG (conjugate gradient), MG (multigrid)
// and FT (fast Fourier transform) — as real computations running against
// the simulated machine: every array element lives in simulated pages,
// every access is translated and charged through the cache model, and each
// benchmark verifies its own numerical result, exactly as the originals do.
//
// The four kernels were chosen by the paper for their distinct memory
// behaviour (§8.3): CG is overwhelmingly read-intensive (sparse
// matrix-vector products), IS is write-intensive (counting sort), MG mixes
// strided reads and writes across grid levels, and FT's transposed
// butterfly passes scatter across many pages. Those patterns are what
// drive Figures 9, 10 and Table 3, so they are reproduced structurally,
// not just in op counts.
//
// Like the paper's runs, each benchmark migrates to the other ISA for
// every processing step and back-migrates afterwards ("similarly to
// offloading", §9.2).
package npb

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// Class scales a benchmark, loosely mirroring NPB problem classes.
type Class int

const (
	// ClassT is tiny: unit-test sized, sub-second everywhere.
	ClassT Class = iota
	// ClassS is the evaluation size used by the benchmark harness.
	ClassS
	// ClassW is a larger size for cache-sensitivity experiments.
	ClassW
)

func (c Class) String() string {
	switch c {
	case ClassT:
		return "T"
	case ClassS:
		return "S"
	case ClassW:
		return "W"
	}
	return "?"
}

// Workload is one benchmark instance.
type Workload interface {
	// Name is the benchmark's NPB name ("IS", "CG", "MG", "FT").
	Name() string
	// Run executes the benchmark on t. When migrate is true, each
	// processing step is offloaded to the peer ISA (migrate + back-migrate
	// per step, §9.2); otherwise everything runs on the origin node
	// (the "Vanilla" configuration). Run verifies its own result and
	// fails with an error on any mismatch.
	Run(t *kernel.Task, migrate bool) error
}

// New returns the named workload at a class size.
func New(name string, class Class) (Workload, error) {
	switch name {
	case "IS":
		return NewIS(class), nil
	case "CG":
		return NewCG(class), nil
	case "MG":
		return NewMG(class), nil
	case "FT":
		return NewFT(class), nil
	}
	return nil, fmt.Errorf("npb: unknown benchmark %q", name)
}

// Names lists the implemented benchmarks in the paper's order.
func Names() []string { return []string{"IS", "CG", "MG", "FT"} }

// arr is a 64-bit-element array in simulated memory.
type arr struct {
	base pgtable.VirtAddr
	n    int
}

// allocArr maps an n-element array of 64-bit words. Arrays are 2 MiB
// aligned: full-size NPB arrays span many upper-level page-table regions,
// and preserving that separation is what lets the Stramash prototype's
// origin-handled fault path fire for remotely-first-touched arrays (§9.2.3).
func allocArr(t *kernel.Task, name string, n int) (arr, error) {
	base, err := t.Proc.MmapAligned(uint64(n)*8, 2<<20, kernel.VMARead|kernel.VMAWrite, name)
	if err != nil {
		return arr{}, err
	}
	return arr{base: base, n: n}, nil
}

func (a arr) addr(i int) pgtable.VirtAddr {
	return a.base + pgtable.VirtAddr(i)*8
}

// get loads element i.
func (a arr) get(t *kernel.Task, i int) (uint64, error) {
	return t.Load(a.addr(i), 8)
}

// set stores element i.
func (a arr) set(t *kernel.Task, i int, v uint64) error {
	return t.Store(a.addr(i), 8, v)
}

// offload runs step on the peer node when migrate is set: migrate there,
// run, migrate back (the paper's per-procedure offload pattern).
func offload(t *kernel.Task, migrate bool, step func() error) error {
	if !migrate {
		return step()
	}
	home := t.Node
	away := kernel.Other(home)
	if err := t.Migrate(away); err != nil {
		return err
	}
	if err := step(); err != nil {
		return err
	}
	return t.Migrate(home)
}

// newRNG returns the deterministic generator all benchmarks use for input
// data (host-side: input generation is not part of the measured kernel).
func newRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed) }
