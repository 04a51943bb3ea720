// Package microbench implements the paper's three microbenchmarks:
// cross-ISA memory access cost (Figure 11), software-vs-hardware
// consistency at cache-line granularity (Figure 12), and the cross-ISA
// futex ping-pong (Figure 13).
package microbench

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgtable"
	"repro/internal/sim"
)

// Direction selects which side allocates and which side accesses in the
// memory-access microbenchmark (§9.2.4).
type Direction int

const (
	// VanillaDir: the origin accesses its own memory (baseline).
	VanillaDir Direction = iota
	// RemoteAccessOrigin: a migrated task reads memory the origin
	// allocated ("RaO").
	RemoteAccessOrigin
	// OriginAccessRemote: the origin reads memory the remote side
	// allocated ("OaR").
	OriginAccessRemote
)

func (d Direction) String() string {
	switch d {
	case VanillaDir:
		return "Vanilla"
	case RemoteAccessOrigin:
		return "RaO"
	case OriginAccessRemote:
		return "OaR"
	}
	return "?"
}

// MemAccessParams sizes the memory-access microbenchmark.
type MemAccessParams struct {
	// Bytes is the buffer size (paper: 10 MB; scaled default 1 MB).
	Bytes int
	// Stride in bytes between accesses (sequential: 8).
	Stride int
	// NoCold pre-warms the accessor (the "No Cold" bars): the accessing
	// side touches the buffer once before the timed pass.
	NoCold bool
	// Writes makes the timed pass store instead of load.
	Writes bool
}

// DefaultMemAccessParams returns the scaled §9.2.4 configuration.
func DefaultMemAccessParams() MemAccessParams {
	return MemAccessParams{Bytes: 1 << 20, Stride: 8}
}

// MemAccessResult is one measurement.
type MemAccessResult struct {
	Direction Direction
	NoCold    bool
	Cycles    sim.Cycles
	Accesses  int64
}

// RunMemAccess performs the §9.2.4 experiment on machine m: allocate the
// buffer on one side, then sequentially access it from the configured
// side, timing only the access pass.
func RunMemAccess(m *machine.Machine, p MemAccessParams, dir Direction) (MemAccessResult, error) {
	if p.Bytes == 0 {
		p = DefaultMemAccessParams()
	}
	res := MemAccessResult{Direction: dir, NoCold: p.NoCold}

	body := func(t *kernel.Task) error {
		buf, err := t.Proc.MmapAligned(uint64(p.Bytes), 2<<20, kernel.VMARead|kernel.VMAWrite, "ubench")
		if err != nil {
			return err
		}
		accessor := mem.NodeX86 // task runs at origin by default

		// Populate on the allocating side (first touch decides placement).
		switch dir {
		case VanillaDir, RemoteAccessOrigin:
			// Origin allocates: populate before migrating.
			for off := 0; off < p.Bytes; off += mem.PageSize {
				if err := t.Store(buf+pgtable.VirtAddr(off), 8, uint64(off)); err != nil {
					return err
				}
			}
			if dir == RemoteAccessOrigin {
				if err := t.Migrate(mem.NodeArm); err != nil {
					return err
				}
				accessor = mem.NodeArm
			}
		case OriginAccessRemote:
			// Remote allocates: migrate, populate, come back.
			if err := t.Migrate(mem.NodeArm); err != nil {
				return err
			}
			for off := 0; off < p.Bytes; off += mem.PageSize {
				if err := t.Store(buf+pgtable.VirtAddr(off), 8, uint64(off)); err != nil {
					return err
				}
			}
			if err := t.Migrate(mem.NodeX86); err != nil {
				return err
			}
		}
		_ = accessor

		pass := func() error {
			for off := 0; off < p.Bytes; off += p.Stride {
				if p.Writes {
					if err := t.Store(buf+pgtable.VirtAddr(off), 8, uint64(off)); err != nil {
						return err
					}
				} else {
					if _, err := t.Load(buf+pgtable.VirtAddr(off), 8); err != nil {
						return err
					}
				}
				res.Accesses++
			}
			return nil
		}
		if p.NoCold {
			// Warm pass: the accessor has already seen the data.
			if err := pass(); err != nil {
				return err
			}
			res.Accesses = 0
		}
		t.BeginTimed()
		if err := pass(); err != nil {
			return err
		}
		res.Cycles = t.TimedCycles()
		return nil
	}

	_, err := m.RunSingle(fmt.Sprintf("memaccess-%v", dir), mem.NodeX86, body)
	return res, err
}
