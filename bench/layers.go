package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/cap"
	"repro/internal/hw"
	"repro/internal/interconnect"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/microbench"
	"repro/internal/net"
	"repro/internal/pgtable"
	"repro/internal/redisapp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// The layer sweep: fixed-iteration loops over each package's exported
// entry points, median of sweepBatches batches. It measures host cost per
// call (and, where the call advances a simulated clock, simulated cycles
// per call) of one layer at a time, so a later PR that speeds one layer up
// has a number that isolates it from the workloads' mix.

const sweepBatches = 5

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// scale shrinks a full-size iteration count by the sweep's divisor.
func (s *sweep) scale(n int) int {
	if n /= s.div; n < 2 {
		return 2
	}
	return n
}

// measure times sweepBatches batches of fn(n) and returns the median host
// nanoseconds and the median heap objects allocated per operation.
func (s *sweep) measure(n int, fn func(n int)) (ns, allocs float64) {
	n = s.scale(n)
	var nss, as []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < sweepBatches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		as = append(as, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(as)
}

// sweep carries the metric map and the first error through the layers.
// div divides every iteration count: 1 for the ledger, large for the smoke
// test, which checks names and finiteness, not values.
type sweep struct {
	m   map[string]float64
	err error
	div int
}

func (s *sweep) put(name string, v float64) { s.m[name] = v }

func (s *sweep) fail(layer string, err error) {
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("layer sweep %s: %w", layer, err)
	}
}

// inTask boots a machine and runs body as its single task on node 0. keep
// records the first error of body's measured loops, which becomes the
// task's error if body itself returns none.
func inTask(cfg machine.Config, body func(m *machine.Machine, t *kernel.Task, keep func(error)) error) error {
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	_, err = m.RunSingle("sweep", mem.NodeX86, func(t *kernel.Task) error {
		if err := body(m, t, keep); err != nil {
			return err
		}
		return opErr
	})
	return err
}

var (
	fusedCfg   = machine.Config{Model: mem.Shared, OS: machine.StramashOS}
	popcornCfg = machine.Config{Model: mem.Shared, OS: machine.PopcornSHM}
)

const rw = kernel.VMARead | kernel.VMAWrite

func layerSweep(div int) (map[string]float64, error) {
	s := &sweep{m: map[string]float64{}, div: div}
	sweepSim(s)
	sweepMem(s)
	sweepCache(s)
	sweepPgtable(s)
	sweepKernel(s)
	sweepInterconnect(s)
	sweepPersonalities(s)
	sweepNet(s)
	sweepVFS(s)
	sweepRedis(s)
	sweepCap(s)
	sweepTraceMachine(s)
	return s.m, s.err
}

func sweepSim(s *sweep) {
	run := func(e *sim.Engine) { s.fail("sim", e.Run()) }
	ns, _ := s.measure(20000, func(n int) {
		e := sim.NewEngine()
		e.Spawn("solo", 0, func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				t.Advance(e.Quantum) // a full quantum: every Advance yields
			}
		})
		run(e)
	})
	s.put("sim.advance_yield_ns", ns)

	ns, _ = s.measure(20000, func(n int) {
		e := sim.NewEngine()
		for _, name := range []string{"a", "b"} {
			e.Spawn(name, 0, func(t *sim.Thread) {
				for i := 0; i < n/2; i++ {
					t.Advance(1)
					t.YieldPoint() // the other thread is now behind: hand off
				}
			})
		}
		run(e)
	})
	s.put("sim.handoff_ns", ns)

	ns, _ = s.measure(10000, func(n int) {
		e := sim.NewEngine()
		waiter := e.Spawn("waiter", 0, func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				t.Block("sweep")
			}
		})
		e.Spawn("waker", 0, func(t *sim.Thread) {
			for i := 0; i < n; i++ {
				t.Advance(1)
				e.Wake(waiter, t.Now())
				t.YieldPoint() // the waiter (lower ID) runs until it blocks again
			}
		})
		run(e)
	})
	s.put("sim.block_wake_ns", ns)

	ns, _ = s.measure(2000, func(n int) {
		e := sim.NewEngine()
		for i := 0; i < n; i++ {
			e.Spawn("t", 0, func(t *sim.Thread) {})
		}
		run(e)
	})
	s.put("sim.spawn_ns", ns)
}

func sweepMem(s *sweep) {
	p := mem.NewPhysical(mem.DefaultLayout(mem.Separated))
	const frames = 256
	for i := 0; i < frames; i++ {
		p.Write64(mem.PhysAddr(i)*mem.PageSize, 1)
	}
	var sink uint64
	ns, allocs := s.measure(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			a := 0x1000 + mem.PhysAddr(i&2048)
			p.WriteUint(a, 8, uint64(i))
			sink += p.ReadUint(a, 8)
		}
	})
	s.put("mem.rw_ns", ns)
	s.put("mem.rw_allocs", allocs)
	ns, _ = s.measure(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			a := mem.PhysAddr(i%frames) * mem.PageSize // a new frame each time: no last-frame cache
			p.WriteUint(a, 8, uint64(i))
			sink += p.ReadUint(a, 8)
		}
	})
	s.put("mem.rw_strided_ns", ns)
	ns, _ = s.measure(100_000, func(n int) {
		for i := 0; i < n; i++ {
			p.CopyPage(mem.PhysAddr(1+i%8)*mem.PageSize, mem.PhysAddr(16+i%8)*mem.PageSize)
		}
	})
	s.put("mem.copy_page_ns", ns)
	_ = sink
}

func sweepCache(s *sweep) {
	newH := func() *cache.Hierarchy {
		layout := mem.DefaultLayout(mem.Separated)
		return cache.NewHierarchy(cache.DefaultConfig(mem.Separated), &layout)
	}
	// Line-number stride 4096 aliases every level of the default geometry
	// into one set, so 32 such lines thrash the 16-way L3 (see
	// internal/cache/hotpath_bench_test.go).
	const missStride = 4096 * mem.LineSize
	var sink sim.Cycles

	h := newH()
	h.Access(mem.NodeX86, 0, cache.Read, 0x1000, 8)
	ns, allocs := s.measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += h.Access(mem.NodeX86, 0, cache.Read, 0x1000, 8)
		}
	})
	s.put("cache.l1hit_ns", ns)
	s.put("cache.l1hit_allocs", allocs)

	h = newH()
	for i := 0; i < 64; i++ { // warm: materialize directory capacity
		h.Access(mem.NodeX86, 0, cache.Read, mem.PhysAddr(i%32)*missStride, 8)
	}
	ns, allocs = s.measure(500_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += h.Access(mem.NodeX86, 0, cache.Read, mem.PhysAddr(i%32)*missStride, 8)
		}
	})
	s.put("cache.miss_ns", ns)
	s.put("cache.miss_allocs", allocs)

	h = newH()
	h.Access(mem.NodeX86, 0, cache.Write, 0x2000, 8)
	h.Access(mem.NodeArm, 0, cache.Write, 0x2000, 8)
	ns, allocs = s.measure(500_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += h.Access(mem.NodeID(i&1), 0, cache.Write, 0x2000, 8) // a CXL snoop invalidate each time
		}
	})
	s.put("cache.snoop_ns", ns)
	s.put("cache.snoop_allocs", allocs)
	_ = sink
}

func sweepPgtable(s *sweep) {
	phys := mem.NewPhysical(mem.DefaultLayout(mem.FullyShared))
	next := mem.PhysAddr(0x100000)
	alloc := func() (mem.PhysAddr, error) {
		a := next
		next += mem.PageSize
		phys.ZeroPage(a)
		return a, nil
	}
	const pages = 512
	base := pgtable.VirtAddr(0x7F00_0000_0000)
	perms := pgtable.Perms{Write: true, User: true}
	var sink uint64
	for _, f := range []pgtable.Format{pgtable.X86Format{}, pgtable.Arm64Format{}} {
		tbl, err := pgtable.New(phys, alloc, f)
		s.fail("pgtable", err)
		if err != nil {
			return
		}
		for i := 0; i < pages; i++ {
			_, err := tbl.Map(phys, alloc, base+pgtable.VirtAddr(i*mem.PageSize), uint64(0x1000+i), perms)
			s.fail("pgtable", err)
		}
		ns, _ := s.measure(500_000, func(n int) {
			for i := 0; i < n; i++ {
				pfn, _, _ := tbl.Walk(phys, base+pgtable.VirtAddr((i%pages)*mem.PageSize))
				sink += pfn
			}
		})
		if f.Name() == "x86_64" {
			s.put("pgtable.walk_x86_ns", ns)
		} else {
			s.put("pgtable.walk_arm_ns", ns)
		}
	}
	ns, _ := s.measure(4096, func(n int) {
		next = 0x4000000 // reuse the same table frames each batch
		tbl, err := pgtable.New(phys, alloc, pgtable.X86Format{})
		s.fail("pgtable", err)
		for i := 0; i < n && err == nil; i++ {
			_, err = tbl.Map(phys, alloc, base+pgtable.VirtAddr(i*mem.PageSize), uint64(0x1000+i), perms)
		}
		s.fail("pgtable", err)
	})
	s.put("pgtable.map_ns", ns)
	leaf := pgtable.X86Format{}.EncodeLeaf(0xABCDE, perms)
	ns, _ = s.measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			e, _ := pgtable.ConvertLeaf(pgtable.Arm64Format{}, pgtable.X86Format{}, leaf+uint64(i&1))
			sink += e
		}
	})
	s.put("pgtable.convert_leaf_ns", ns)
	_ = sink
}

func sweepKernel(s *sweep) {
	s.fail("kernel", inTask(fusedCfg, func(m *machine.Machine, t *kernel.Task, keep func(error)) error {
		page, err := t.Proc.Mmap(mem.PageSize, rw, "warm")
		if err != nil {
			return err
		}
		if err := t.Store(page, 8, 1); err != nil {
			return err
		}
		ns, allocs := s.measure(500_000, func(n int) {
			for i := 0; i < n; i++ {
				_, err := t.Load(page+pgtable.VirtAddr(i&0x3f8), 8)
				keep(err)
			}
		})
		s.put("kernel.load_hit_ns", ns)
		s.put("kernel.load_hit_allocs", allocs)
		ns, _ = s.measure(500_000, func(n int) {
			for i := 0; i < n; i++ {
				keep(t.Store(page+pgtable.VirtAddr(i&0x3f8), 8, uint64(i)))
			}
		})
		s.put("kernel.store_hit_ns", ns)

		ns, _ = s.measure(2048, func(n int) {
			buf, err := t.Proc.Mmap(uint64(n)*mem.PageSize, rw, "fault")
			keep(err)
			for i := 0; i < n && err == nil; i++ {
				err = t.Store(buf+pgtable.VirtAddr(i*mem.PageSize), 8, 1) // first touch: one anonymous fault
			}
			keep(err)
		})
		s.put("kernel.fault_anon_ns", ns)

		ns, _ = s.measure(500, func(n int) {
			for i := 0; i < n; i++ {
				c, err := t.Clone("child", 0, func(*kernel.Task) error { return nil })
				if err != nil {
					keep(err)
					return
				}
				keep(c.Join(t))
			}
		})
		s.put("kernel.clone_join_ns", ns)
		return nil
	}))
	s.put("kernel.futex_pingpong_ns", futexLoopNs(s, fusedCfg, s.scale(2000)))
}

// futexLoopNs is the host cost of one futex ping-pong loop (a P on one
// node, a V on the other) on a fresh machine per batch, build excluded.
func futexLoopNs(s *sweep, cfg machine.Config, loops int) float64 {
	var nss []float64
	for b := 0; b < sweepBatches; b++ {
		m, err := machine.New(cfg)
		if err != nil {
			s.fail("futex", err)
			return 0
		}
		t0 := time.Now()
		r, err := microbench.RunFutexPingPong(m, loops)
		nss = append(nss, float64(time.Since(t0).Nanoseconds())/float64(loops))
		s.fail("futex", err)
		if err == nil && r.Counter != uint64(loops) {
			s.fail("futex", fmt.Errorf("counter %d after %d loops", r.Counter, loops))
		}
	}
	return median(nss)
}

func sweepInterconnect(s *sweep) {
	s.fail("interconnect", inTask(fusedCfg, func(m *machine.Machine, t *kernel.Task, _ func(error)) error {
		// The messenger's two rings take about 2 MiB at the start of the
		// 128 MiB messaging area; the middle of it is free.
		base := m.Plat.Layout().SharedRegions()[0].Start + mem.PhysAddr(m.MsgAreaSize()/2)
		ring := interconnect.NewRing(t.Port, base, 64, 128)
		payload := make([]byte, 64)
		ok := true
		ns, _ := s.measure(100_000, func(n int) {
			for i := 0; i < n; i++ {
				sent := ring.Send(t.Port, payload)
				_, got := ring.Recv(t.Port)
				ok = ok && sent && got
			}
		})
		if !ok {
			return fmt.Errorf("ring send/recv failed")
		}
		s.put("interconnect.ring_sendrecv_ns", ns)
		echo := func(_ *hw.Port, req []byte) []byte { return req[:8] }
		ns, _ = s.measure(20_000, func(n int) {
			for i := 0; i < n; i++ {
				ok = ok && len(m.Msgr.RPC(t.Port, echo, payload)) == 8
			}
		})
		if !ok {
			return fmt.Errorf("rpc returned a short response")
		}
		s.put("interconnect.rpc_ns", ns)
		return nil
	}))
}

// remoteFaults populates pages at the origin, migrates, and touches each
// page once from the other ISA: one remote fault per page (a DSM
// replication under Popcorn, a remote page-table write under Stramash).
// It returns host ns and simulated cycles per fault, medians over batches.
func remoteFaults(cfg machine.Config, pages int) (ns, cycles float64, err error) {
	var nss, cs []float64
	for b := 0; b < sweepBatches; b++ {
		err = inTask(cfg, func(m *machine.Machine, t *kernel.Task, _ func(error)) error {
			buf, err := t.Proc.MmapAligned(uint64(pages)*mem.PageSize, 2<<20, rw, "remote")
			if err != nil {
				return err
			}
			for i := 0; i < pages; i++ {
				if err := t.Store(buf+pgtable.VirtAddr(i*mem.PageSize), 8, uint64(i)); err != nil {
					return err
				}
			}
			if err := t.Migrate(mem.NodeArm); err != nil {
				return err
			}
			t0, c0 := time.Now(), t.Th.Now()
			for i := 0; i < pages; i++ {
				if _, err := t.Load(buf+pgtable.VirtAddr(i*mem.PageSize), 8); err != nil {
					return err
				}
			}
			nss = append(nss, float64(time.Since(t0).Nanoseconds())/float64(pages))
			cs = append(cs, float64(t.Th.Now()-c0)/float64(pages))
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return median(nss), median(cs), nil
}

func sweepPersonalities(s *sweep) {
	ns, cyc, err := remoteFaults(popcornCfg, s.scale(512))
	s.fail("popcorn", err)
	s.put("popcorn.remote_fault_ns", ns)
	s.put("popcorn.remote_fault_cycles", cyc)
	ns, cyc, err = remoteFaults(fusedCfg, s.scale(512))
	s.fail("stramash", err)
	s.put("stramash.remote_fault_ns", ns)
	s.put("stramash.remote_fault_cycles", cyc)
	s.put("popcorn.futex_loop_ns", futexLoopNs(s, popcornCfg, s.scale(300)))

	s.fail("stramash", inTask(fusedCfg, func(m *machine.Machine, t *kernel.Task, _ func(error)) error {
		var opErr error
		var cs []float64
		ns, _ := s.measure(200, func(n int) {
			c0 := t.Th.Now()
			for i := 0; i < n && opErr == nil; i++ {
				if opErr = t.Migrate(mem.NodeArm); opErr == nil {
					opErr = t.Migrate(mem.NodeX86)
				}
			}
			cs = append(cs, float64(t.Th.Now()-c0)/float64(n))
		})
		s.put("stramash.migrate_roundtrip_ns", ns)
		s.put("stramash.migrate_roundtrip_cycles", median(cs))
		return opErr
	}))
}

func sweepNet(s *sweep) {
	f := &net.Frame{Kind: net.FrameDATA, Src: net.Addr{Mach: 0, Port: 1}, Dst: net.Addr{Mach: 1, Port: 2},
		Seq: 1, Window: 4096, Payload: make([]byte, 1024)}
	ok := true
	ns, allocs := s.measure(100_000, func(n int) {
		for i := 0; i < n; i++ {
			g, err := net.DecodeFrame(net.EncodeFrame(f))
			ok = ok && err == nil && len(g.Payload) == 1024
		}
	})
	if !ok {
		s.fail("net", fmt.Errorf("frame codec round trip failed"))
	}
	s.put("net.frame_codec_ns", ns)
	s.put("net.frame_codec_allocs", allocs)

	// A 64-byte echo between two machines: NIC TX, switch, NIC RX, recv,
	// and back. Timed on the client across whole batches; the server's
	// work runs in between on the same host thread budget.
	const port, msg = 7, 64
	rounds := s.scale(2000)
	cl, err := machine.NewCluster([]machine.Config{fusedCfg, fusedCfg}, net.DefaultFabricConfig())
	if err != nil {
		s.fail("net", err)
		return
	}
	recvAll := func(t *kernel.Task, fd, n int) error {
		for n > 0 {
			b, err := t.RecvSock(fd, n)
			if err != nil {
				return err
			}
			n -= len(b)
		}
		return nil
	}
	total := rounds * sweepBatches
	var cycles []float64
	_, err = cl.RunTasks(
		machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{Name: "echo", Origin: mem.NodeX86, KeepAlive: true,
			Body: func(t *kernel.Task) error {
				lfd, err := t.SocketListen(port)
				if err != nil {
					return err
				}
				fd, err := t.SocketAccept(lfd)
				if err != nil {
					return err
				}
				buf := make([]byte, msg)
				for i := 0; i < total; i++ {
					if err := recvAll(t, fd, msg); err != nil {
						return err
					}
					if _, err := t.SendSock(fd, buf); err != nil {
						return err
					}
				}
				return t.CloseSock(fd)
			}}},
		machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{Name: "client", Origin: mem.NodeX86, KeepAlive: true, Start: 2000,
			Body: func(t *kernel.Task) error {
				fd, err := t.SocketConnect(net.Addr{Mach: 1, Port: port})
				if err != nil {
					return err
				}
				buf := make([]byte, msg)
				var opErr error
				ns, _ := s.measure(2000, func(n int) {
					c0 := t.Th.Now()
					for i := 0; i < n && opErr == nil; i++ {
						if _, opErr = t.SendSock(fd, buf); opErr == nil {
							opErr = recvAll(t, fd, msg)
						}
					}
					cycles = append(cycles, float64(t.Th.Now()-c0)/float64(n))
				})
				s.put("net.echo_roundtrip_ns", ns)
				if opErr != nil {
					return opErr
				}
				return t.CloseSock(fd)
			}}},
	)
	s.fail("net", err)
	if len(cycles) > 0 {
		s.put("net.echo_roundtrip_cycles", median(cycles))
	}
}

// vfsSweep measures the file path of one page-cache regime. The popcorn
// regime's misses and syncs are taken from the other ISA than the one that
// wrote, so each is a DSM fetch or a writeback message.
func vfsSweep(s *sweep, regime vfs.Regime, prefix string, full bool) {
	cfg := fusedCfg
	cfg.FileCache = regime
	s.fail(prefix, inTask(cfg, func(m *machine.Machine, t *kernel.Task, keep func(error)) error {
		for _, dir := range []string{"/a", "/a/b", "/a/b/c"} {
			if err := t.Mkdir(dir); err != nil {
				return err
			}
		}
		fd, err := t.CreateFile("/a/b/c/f")
		if err != nil {
			return err
		}
		kib := make([]byte, 1024)
		for off := int64(0); off < 4*mem.PageSize; off += 1024 {
			if _, err := t.WriteFileAt(fd, kib, off); err != nil {
				return err
			}
		}
		if full {
			ns, _ := s.measure(100_000, func(n int) {
				for i := 0; i < n; i++ {
					_, err := m.VFS().Resolve(t.Port, "/a/b/c/f")
					keep(err)
				}
			})
			s.put("vfs.walk_ns", ns)
			ns, _ = s.measure(100_000, func(n int) {
				for i := 0; i < n; i++ {
					_, err := t.ReadFileAt(fd, kib, int64(i&15)*1024)
					keep(err)
				}
			})
			s.put("vfs.read_hit_ns", ns)
			ns, _ = s.measure(100_000, func(n int) {
				for i := 0; i < n; i++ {
					_, err := t.WriteFileAt(fd, kib, int64(i&15)*1024)
					keep(err)
				}
			})
			s.put("vfs.write_hit_ns", ns)
		}

		// Read misses: pages no cache reachable from the reader holds yet.
		// Fused: holes of a sparse file. Popcorn: pages the x86 kernel
		// wrote, read from Arm.
		missPages := s.scale(512)
		var missNs []float64
		for b := 0; b < sweepBatches; b++ {
			if regime == vfs.RegimePopcorn {
				keep(t.Migrate(mem.NodeX86))
			}
			mfd, err := t.CreateFile(fmt.Sprintf("/miss%d", b))
			keep(err)
			if regime == vfs.RegimePopcorn {
				for i := 0; i < missPages; i++ {
					_, err := t.WriteFileAt(mfd, kib[:8], int64(i)*mem.PageSize)
					keep(err)
				}
				keep(t.Migrate(mem.NodeArm))
			} else {
				_, err := t.WriteFileAt(mfd, kib[:1], int64(missPages)*mem.PageSize-1)
				keep(err)
			}
			before := m.FileStats()
			t0 := time.Now()
			for i := 0; i < missPages; i++ {
				_, err := t.ReadFileAt(mfd, kib[:8], int64(i)*mem.PageSize)
				keep(err)
			}
			missNs = append(missNs, float64(time.Since(t0).Nanoseconds())/float64(missPages))
			after := m.FileStats()
			if got := after.Misses[0] + after.Misses[1] - before.Misses[0] - before.Misses[1]; got < int64(missPages)-1 {
				keep(fmt.Errorf("%sread_miss loop took %d misses over %d pages", prefix, got, missPages))
			}
		}
		s.put(prefix+"read_miss_ns", median(missNs))
		if regime == vfs.RegimePopcorn {
			keep(t.Migrate(mem.NodeX86))
		}

		// The AOF group-commit shape: 8 appends of 1 KiB, then fsync.
		afd, err := t.OpenFile("/aof", vfs.OWrite|vfs.OCreate|vfs.OAppend)
		if err != nil {
			return err
		}
		ns, _ := s.measure(300, func(n int) {
			for i := 0; i < n; i++ {
				for k := 0; k < 8; k++ {
					_, err := t.WriteFile(afd, kib)
					keep(err)
				}
				keep(t.SyncFile(afd))
			}
		})
		s.put(prefix+"append_sync_ns", ns)
		return nil
	}))
}

func sweepVFS(s *sweep) {
	vfsSweep(s, vfs.RegimeFused, "vfs.", true)
	vfsSweep(s, vfs.RegimePopcorn, "vfs.popcorn_", false)
}

func sweepRedis(s *sweep) {
	s.fail("redisapp", inTask(fusedCfg, func(m *machine.Machine, t *kernel.Task, keep func(error)) error {
		arena, err := redisapp.NewArena(t, 64<<20, "sweep")
		if err != nil {
			return err
		}
		store, err := redisapp.NewStore(t, arena, 256)
		if err != nil {
			return err
		}
		const keys = 64
		key := func(i int) []byte { return []byte(fmt.Sprintf("key:%04d", i%keys)) }
		val := make([]byte, 1024)
		for i := 0; i < keys; i++ {
			keep(store.Set(t, key(i), val))
		}
		ks := make([][]byte, keys)
		for i := range ks {
			ks[i] = key(i)
		}
		ns, _ := s.measure(5000, func(n int) {
			for i := 0; i < n; i++ {
				v, err := store.Get(t, ks[i%keys])
				keep(err)
				if len(v) != len(val) {
					keep(fmt.Errorf("get returned %d bytes", len(v)))
				}
			}
		})
		s.put("redisapp.store_get_ns", ns)
		ns, _ = s.measure(5000, func(n int) {
			for i := 0; i < n; i++ {
				keep(store.Set(t, ks[i%keys], val))
			}
		})
		s.put("redisapp.store_set_ns", ns)
		return nil
	}))

	// Recovery over a redis-set log: run a small all-SET cell, then replay
	// the AOF the server left in its machine's file system.
	requests := s.scale(400)
	cl, err := machine.NewCluster([]machine.Config{
		fusedCfg,
		{Model: mem.Shared, OS: machine.StramashOS, Cores: fullSizes.prodCores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
	}, net.DefaultFabricConfig())
	if err != nil {
		s.fail("redisapp", err)
		return
	}
	sz := fullSizes
	sz.prodRequests = requests
	p := prodTraffic(sz, defaultTrafficSeed, gapSat, 1)
	if _, err := redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: redisapp.KSSharded, Cores: fullSizes.prodCores}); err != nil {
		s.fail("redisapp", err)
		return
	}
	var nss []float64
	_, err = cl.RunTasks(machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{Name: "recover", Origin: mem.NodeX86,
		Body: func(t *kernel.Task) error {
			for b := 0; b < sweepBatches; b++ {
				arena, err := redisapp.NewArena(t, 16<<20, fmt.Sprintf("recover%d", b))
				if err != nil {
					return err
				}
				store, err := redisapp.NewStore(t, arena, 256)
				if err != nil {
					return err
				}
				t0 := time.Now()
				n, err := redisapp.RecoverAOF(t, "/redis.aof", store)
				if err != nil {
					return err
				}
				if n != p.Keys+requests {
					return fmt.Errorf("recovered %d records, want %d", n, p.Keys+requests)
				}
				nss = append(nss, float64(time.Since(t0).Nanoseconds())/float64(n))
			}
			return nil
		}}})
	s.fail("redisapp", err)
	if len(nss) > 0 {
		s.put("redisapp.recover_ns_per_record", median(nss))
	}
}

func sweepCap(s *sweep) {
	ns := cap.NewNamespace()
	owner, other := ns.NewTenant("owner", cap.Budget{}), ns.NewTenant("other", cap.Budget{})
	tb := ns.Table
	root := tb.Grant(owner, cap.File, "/t0")
	id, err := tb.Derive(root, cap.File, "/t0/f")
	s.fail("cap", err)
	ok := true
	t, allocs := s.measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			ok = ok && tb.Check(owner, id, cap.File, "fd") == nil
		}
	})
	s.put("cap.check_ns", t)
	s.put("cap.check_allocs", allocs)
	t, _ = s.measure(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			ok = ok && tb.Check(other, id, cap.File, "fd") != nil
		}
	})
	s.put("cap.check_denied_ns", t)

	// Revoking a 64-entry subtree (a path grant with 63 open handles).
	var nss []float64
	for b := 0; b < sweepBatches; b++ {
		trees := s.scale(500)
		roots := make([]cap.CapID, trees)
		for i := range roots {
			roots[i] = tb.Grant(owner, cap.File, "/t")
			for c := 0; c < 63; c++ {
				_, err := tb.Derive(roots[i], cap.File, "/t/f")
				s.fail("cap", err)
			}
		}
		t0 := time.Now()
		for _, r := range roots {
			ok = ok && len(tb.Revoke(r)) == 64
		}
		nss = append(nss, float64(time.Since(t0).Nanoseconds())/float64(trees))
	}
	s.put("cap.revoke_ns", median(nss))
	if !ok {
		s.fail("cap", fmt.Errorf("a capability check or revoke returned the wrong answer"))
	}

	// The syscall gate: what a tenant's OpenFile+CloseFile costs beyond
	// root's, on one machine and one file.
	cfg := fusedCfg
	cfg.Tenants = []machine.TenantSpec{{Name: "t0", Grants: []string{"file:/t0"}}}
	m, err := machine.New(cfg)
	if err != nil {
		s.fail("cap", err)
		return
	}
	openClose := func(out *float64) func(t *kernel.Task) error {
		return func(t *kernel.Task) error {
			var opErr error
			*out, _ = s.measure(20_000, func(n int) {
				for i := 0; i < n && opErr == nil; i++ {
					var fd int
					if fd, opErr = t.OpenFile("/t0/f", vfs.ORead); opErr == nil {
						opErr = t.CloseFile(fd)
					}
				}
			})
			return opErr
		}
	}
	var rootNs, tenantNs float64
	_, err = m.RunTasks(machine.TaskSpec{Name: "root", Origin: mem.NodeX86, Body: func(t *kernel.Task) error {
		if err := t.Mkdir("/t0"); err != nil {
			return err
		}
		fd, err := t.CreateFile("/t0/f")
		if err != nil {
			return err
		}
		if err := t.CloseFile(fd); err != nil {
			return err
		}
		return openClose(&rootNs)(t)
	}})
	s.fail("cap", err)
	_, err = m.RunTasks(machine.TaskSpec{Name: "tenant", Origin: mem.NodeX86, Tenant: "t0", Body: openClose(&tenantNs)})
	s.fail("cap", err)
	s.put("cap.syscall_gate_ns", tenantNs-rootNs)
}

func sweepTraceMachine(s *sweep) {
	ev := trace.Event{Cycle: 1, Kind: trace.KindMemAccess, Cost: 100, Tid: 1}
	ns, _ := s.measure(200_000, func(n int) {
		buf := trace.NewBuffer()
		for i := 0; i < n; i++ {
			buf.Emit(ev)
		}
	})
	s.put("trace.emit_ns", ns)

	ns, _ = s.measure(1, func(int) {
		_, err := machine.New(fusedCfg)
		s.fail("machine", err)
	})
	s.put("machine.new_ns", ns)
	ns, _ = s.measure(1, func(int) {
		cfgs := make([]machine.Config, clusterServers+1)
		for i := range cfgs {
			cfgs[i] = fusedCfg
		}
		_, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
		s.fail("machine", err)
	})
	s.put("machine.new_cluster5_ns", ns)
}

// runLayers produces the per-layer metrics: the sweep once, then for each
// named workload one untraced and one traced repetition. The untraced one
// is the reference for trace.overhead_ratio and for the observer-effect
// check (traced simulated numbers must equal untraced ones).
func runLayers(names []string, sz sizes, sweepDiv int, env environment, sp *spans) ([]result, error) {
	swept, err := layerSweep(sweepDiv)
	if err != nil {
		return nil, err
	}
	var results []result
	for _, name := range names {
		w, err := buildWorkload(name, sz, env.TrafficSeed)
		if err != nil {
			return nil, err
		}
		order := cellOrder(len(w.cells), env.Seed)
		plain, err := runRep(w, order, false, false, nil)
		if err != nil {
			return nil, err
		}
		first := len(sp.list)
		traced, err := runRep(w, order, true, false, sp)
		if err != nil {
			return nil, err
		}
		var tl tally
		tl.add(plain.checks(w))
		tl.add(traced.checks(w))
		tl.add([]check{{"traced repetition repeats the untraced simulated numbers", equalSim(traced.sim(), plain.sim())}})

		r := result{Workload: name, Mode: "layers", Params: w.params, Reps: 1,
			Attempted: tl.attempted, Failed: tl.failed, Correct: tl.failed == 0,
			Sim: plain.sim(), Metrics: map[string]float64{}}
		for _, c := range w.cells {
			r.Cells = append(r.Cells, c.name)
		}
		for k, v := range swept {
			r.Metrics[k] = v
		}
		workloadLayerMetrics(r.Metrics, plain, traced, sp.list[first:])
		results = append(results, r)
	}
	return results, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workloadLayerMetrics reads one workload's layer counters: exported
// Stats summed over the repetition's machines, the folded trace, and the
// benchmark-side spans. Host rates come from the untraced repetition.
func workloadLayerMetrics(m map[string]float64, plain, traced repetition, sps []span) {
	c := traced.counts
	var simCycles sim.Cycles
	for _, cell := range traced.cells {
		simCycles += cell.cycles
	}
	es := c.engine
	m["sim.serial_cycle_share"] = ratio(float64(es.SerialCycles), float64(es.SerialCycles+es.SoloCycles+es.DomainCycles))
	m["sim.handoffs"] = float64(es.Handoffs())
	m["sim.phases"] = float64(es.Phases)

	m["cache.accesses"] = float64(c.accesses)
	m["cache.l1d_hit_ratio"] = ratio(float64(c.l1dHits), float64(c.l1dAccesses))
	m["cache.l3_miss_ratio"] = ratio(float64(c.l3Accesses-c.l3Hits), float64(c.l3Accesses))
	m["cache.snoops"] = float64(c.snoops)
	m["cache.remote_mem_hits"] = float64(c.remoteMemHits)

	a := traced.attr
	m["kernel.faults"] = float64(a.Counts[trace.KindPageFault])
	m["kernel.futex_waits"] = float64(a.Counts[trace.KindFutexWait])
	// Only NPB hands its task back; elsewhere the TLB counters stay inside
	// the layer and this reads 0.
	m["kernel.tlb_miss_ratio"] = ratio(float64(c.tlbMisses), float64(c.loadsStores))

	m["interconnect.messages"] = float64(c.messages)
	m["popcorn.page_replications"] = float64(c.pageReplications)
	m["popcorn.dsm_invalidations"] = float64(c.dsmInvalidations)
	m["stramash.remote_pt_writes"] = float64(c.remotePTWrites)
	m["stramash.origin_handled"] = float64(c.originHandled)

	m["net.tx_frames"] = float64(c.txFrames)
	m["net.retransmits"] = float64(c.retransmits)
	m["net.rx_highwater"] = float64(c.rxHighwater)

	m["vfs.hits"] = float64(c.fileHits)
	m["vfs.misses"] = float64(c.fileMisses)
	m["vfs.writebacks"] = float64(c.writebacks)
	m["vfs.invalidations"] = float64(c.invalidations)
	m["vfs.syncs"] = float64(c.syncs)
	m["vfs.msg_cycles"] = float64(c.fileMsgCycles)

	m["redisapp.serve_cycles"] = float64(c.serveCycles)
	m["redisapp.aof_records"] = float64(c.aofRecords)
	m["redisapp.fsync_batches"] = float64(c.fsyncBatches)
	m["redisapp.futex_waits"] = float64(c.futexWaits)
	var opsMax, opsSum float64
	for _, ops := range c.workerOps {
		opsSum += float64(ops)
		if float64(ops) > opsMax {
			opsMax = float64(ops)
		}
	}
	m["redisapp.worker_ops_max_over_mean"] = ratio(opsMax*float64(len(c.workerOps)), opsSum)

	m["trace.overhead_ratio"] = ratio(traced.wall, plain.wall)
	busy := float64(a.Busy)
	m["trace.fault_cycle_share"] = ratio(float64(a.Spans[trace.ClassFault]), busy)
	m["trace.messaging_cycle_share"] = ratio(float64(a.Spans[trace.ClassMessaging]), busy)
	m["trace.sync_cycle_share"] = ratio(float64(a.Spans[trace.ClassSync]), busy)
	m["trace.coherence_cycle_share"] = ratio(float64(a.Components[trace.ClassCoherence]), busy)
	m["trace.memory_cycle_share"] = ratio(float64(a.Components[trace.ClassMemory]), busy)
	m["trace.compute_cycle_share"] = ratio(float64(a.Compute()), busy)

	m["machine.sim_mcycles_per_s"] = float64(simCycles) / 1e6 / plain.wall
	m["machine.sim_minstr_per_s"] = float64(c.instructions) / 1e6 / plain.wall
	m["machine.host_ns_per_access"] = ratio(plain.wall*1e9, float64(c.accesses))
	m["machine.wall_s"] = plain.wall
	m["machine.cpu_s"] = plain.cpuS
	m["machine.gc_cycles"] = float64(plain.gcs)

	// A span's self time is its duration minus what its children cover;
	// build/run/verify are leaves, so their self time is their duration.
	self := map[string]float64{}
	for _, sp := range sps {
		self[sp.Name] += float64(sp.End-sp.Start) / 1e9
	}
	m["bench.build_self_s"] = self["build"]
	m["bench.run_self_s"] = self["run"]
	m["bench.verify_self_s"] = self["verify"]
}
