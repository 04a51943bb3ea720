// Runnable examples: each builds simulated machines from the internal
// packages and prints a few numbers, and `go test` checks that output.
//
//	go test -run Example_ -v .
package stramash_test

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cap"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/npb"
	"repro/internal/pgtable"
	"repro/internal/redisapp"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// check aborts an example on any error; a panic fails the test.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example_quickstart is the paper's headline scenario: a process starts on
// the x86 kernel instance, writes into anonymous memory, migrates to the
// AArch64 kernel instance, and reads its data back through cache-coherent
// shared memory. No page is copied; the second kernel's page table is
// filled in by the fused-kernel mechanisms (remote VMA walk, cross-ISA
// page-table lock, format-converted PTEs).
func Example_quickstart() {
	m, err := machine.New(machine.Config{
		Model: mem.Shared,         // CXL 3.0-style shared pool
		OS:    machine.StramashOS, // the paper's contribution
	})
	check(err)

	res, err := m.RunSingle("quickstart", mem.NodeX86, func(t *kernel.Task) error {
		// Map 1 MiB of anonymous memory (demand-paged, like mmap).
		heap, err := t.Proc.Mmap(1<<20, kernel.VMARead|kernel.VMAWrite, "heap")
		if err != nil {
			return err
		}

		// Fill it on the x86 kernel.
		for i := 0; i < 1024; i++ {
			if err := t.Store(heap+pgtable.VirtAddr(i*8), 8, uint64(i*i)); err != nil {
				return err
			}
		}
		fmt.Printf("wrote 1024 words on %v (faults: %d)\n", t.Node, t.Stats.WriteFaults)

		// Migrate to the AArch64 kernel instance.
		if err := t.Migrate(mem.NodeArm); err != nil {
			return err
		}
		fmt.Printf("migrated to %v in %d cycles\n", t.Node, t.Stats.MigrationCycles)

		// Read the same memory: the frames are shared, not replicated.
		var sum uint64
		for i := 0; i < 1024; i++ {
			v, err := t.Load(heap+pgtable.VirtAddr(i*8), 8)
			if err != nil {
				return err
			}
			sum += v
		}
		fmt.Printf("checksum on %v: %d (replicated pages: %d)\n",
			t.Node, sum, t.Proc.CountReplicatedPages())
		return nil
	})
	check(err)
	fmt.Printf("total simulated time: %d cycles; inter-kernel messages: %d\n",
		res.Elapsed(), m.Messages())

	// Output:
	// wrote 1024 words on x86 (faults: 2)
	// migrated to arm in 20428 cycles
	// checksum on arm: 357389824 (replicated pages: 0)
	// total simulated time: 422921 cycles; inter-kernel messages: 1
}

// Example_osbench is Figure 9's IS group in miniature: NPB Integer Sort
// under all four system configurations on the CXL-style Shared memory
// model, normalized to the non-migrating run. `stramash-sim -bench CG
// -os popcorn-shm` and its siblings run the other kernels one at a time.
func Example_osbench() {
	const bench = "IS"
	configs := []struct {
		label   string
		os      machine.OSKind
		migrate bool
	}{
		{"Vanilla (no migration)", machine.VanillaOS, false},
		{"Multiple-kernel / TCP", machine.PopcornTCP, true},
		{"Multiple-kernel / SHM", machine.PopcornSHM, true},
		{"Fused-kernel (Stramash)", machine.StramashOS, true},
	}

	var baseline sim.Cycles
	for _, c := range configs {
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: c.os})
		check(err)
		w, err := npb.New(bench, npb.ClassT)
		check(err)
		var cycles sim.Cycles
		_, err = m.RunSingle(bench, mem.NodeX86, func(t *kernel.Task) error {
			if err := w.Run(t, c.migrate); err != nil {
				return err
			}
			cycles = t.TimedCycles()
			return nil
		})
		check(err)
		if baseline == 0 {
			baseline = cycles
		}
		fmt.Printf("%-26s %12d cycles  (%.2fx vanilla, %d messages)\n",
			c.label, cycles, float64(cycles)/float64(baseline), m.Messages())
	}

	// Output:
	// Vanilla (no migration)           226702 cycles  (1.00x vanilla, 0 messages)
	// Multiple-kernel / TCP           7428982 cycles  (32.77x vanilla, 74 messages)
	// Multiple-kernel / SHM           2866872 cycles  (12.65x vanilla, 74 messages)
	// Fused-kernel (Stramash)         1203264 cycles  (5.31x vanilla, 4 messages)
}

// Example_fileserver drives the fused VFS: a producer task on the x86
// kernel instance appends records to a file, and a consumer task on the
// AArch64 instance reads them back, first through read() syscalls, then
// through an mmap of the same file. Under the fused page cache (the
// default on a fused-kernel machine) both kernels address the same frames
// in the CXL pool, so the hand-off costs coherent loads, not page copies.
// `stramash-sim fileio` runs the same hand-off under both page-cache
// regimes side by side.
func Example_fileserver() {
	const (
		path    = "/srv/log.dat"
		records = 256
		recSize = 64
	)
	m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS})
	check(err)

	// Producer on the x86 node: append fixed-size records.
	_, err = m.RunSingle("producer", mem.NodeX86, func(t *kernel.Task) error {
		if err := t.Mkdir("/srv"); err != nil {
			return err
		}
		fd, err := t.OpenFile(path, vfs.OWrite|vfs.OCreate|vfs.OAppend)
		if err != nil {
			return err
		}
		rec := make([]byte, recSize)
		for i := 0; i < records; i++ {
			for j := range rec {
				rec[j] = byte(i + j)
			}
			if _, err := t.WriteFile(fd, rec); err != nil {
				return err
			}
		}
		return t.CloseFile(fd)
	})
	check(err)
	fmt.Printf("producer (x86): wrote %d records of %d bytes to %s\n", records, recSize, path)

	// Consumer on the Arm node: stream the records back, then cross-check
	// a few through a read-only mmap of the same file.
	_, err = m.RunSingle("consumer", mem.NodeArm, func(t *kernel.Task) error {
		fd, err := t.OpenFile(path, vfs.ORead)
		if err != nil {
			return err
		}
		size, err := t.FileSize(fd)
		if err != nil {
			return err
		}
		if size != records*recSize {
			return fmt.Errorf("file is %d bytes, want %d", size, records*recSize)
		}
		for i := 0; i < records; i++ {
			rec, err := t.ReadFile(fd, recSize)
			if err != nil {
				return err
			}
			if rec[0] != byte(i) || rec[recSize-1] != byte(i+recSize-1) {
				return fmt.Errorf("record %d corrupt: % x", i, rec[:4])
			}
		}
		base, err := t.MmapFile(fd, uint64(size), kernel.VMARead, 0)
		if err != nil {
			return err
		}
		for _, i := range []int{0, records / 2, records - 1} {
			v, err := t.Load(base+pgtable.VirtAddr(i*recSize), 1)
			if err != nil {
				return err
			}
			if byte(v) != byte(i) {
				return fmt.Errorf("mmap view of record %d reads %#x", i, v)
			}
		}
		return t.CloseFile(fd)
	})
	check(err)
	fmt.Printf("consumer (arm): verified all %d records via read() and mmap\n", records)

	st := m.FileStats()
	fmt.Printf("page cache: hits x86=%d arm=%d, misses x86=%d arm=%d, messages=%d\n",
		st.Hits[0], st.Hits[1], st.Misses[0], st.Misses[1], m.Messages())
	fmt.Println("every consumer byte came out of the producer's frames — no copies, no DSM traffic")

	// Output:
	// producer (x86): wrote 256 records of 64 bytes to /srv/log.dat
	// consumer (arm): verified all 256 records via read() and mmap
	// page cache: hits x86=252 arm=259, misses x86=4 arm=0, messages=0
	// every consumer byte came out of the producer's frames — no copies, no DSM traffic
}

// Example_redisserver is Figure 14 in miniature (§9.2.8): a miniature
// Redis server populates its store on the x86 kernel, migrates to the
// AArch64 kernel at its time_event, and serves GETs that a NIC-side task
// deposits into origin-memory RX buffers, under the three systems of the
// figure. `stramash-bench -only fig14` runs every command.
func Example_redisserver() {
	systems := []struct {
		label string
		os    machine.OSKind
	}{
		{"POPCORN-TCP", machine.PopcornTCP},
		{"POPCORN-SHM", machine.PopcornSHM},
		{"STRAMASH", machine.StramashOS},
	}

	var baseline float64
	for _, sys := range systems {
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: sys.os})
		check(err)
		res, err := redisapp.Run(m, redisapp.BenchParams{
			Command:      redisapp.CmdGet,
			Requests:     100,
			PayloadBytes: 1024,
			Keys:         32,
		})
		check(err)
		if res.Errors > 0 {
			panic(fmt.Sprintf("%s: %d command errors", sys.label, res.Errors))
		}
		if baseline == 0 {
			baseline = res.CyclesPerRequest
		}
		fmt.Printf("%-12s %10.0f cycles/request  (%.1fx speedup over TCP)\n",
			sys.label, res.CyclesPerRequest, baseline/res.CyclesPerRequest)
	}

	// Output:
	// POPCORN-TCP      210945 cycles/request  (1.0x speedup over TCP)
	// POPCORN-SHM      102708 cycles/request  (2.1x speedup over TCP)
	// STRAMASH           9509 cycles/request  (22.2x speedup over TCP)
}

// Example_redisprod is production redis on a fused-kernel machine. A
// load-generator machine drives pipelined zipfian traffic into a server
// whose frontend owns the network stack and clone()s one worker per core
// on each ISA, routing requests by key hash over simulated-memory rings.
// Workers execute against hash-partitioned private shards and append every
// mutation to a shared AOF through the fused VFS with group-commit fsync.
// After the run the server replays the log into a fresh store and proves
// the replay digest equals the live keyspace. The example drives its own
// small traffic; `stramash-sim prod -kind K -regime R -cores N -scale S`
// runs any cell of the redisprod extra instead, with that extra's traffic
// and its per-cell check (the replay digest among them).
func Example_redisprod() {
	const cores = 2
	cfgs := []machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS, FileCache: vfs.RegimeFused,
			Cores: cores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	check(err)
	p := redisapp.TrafficParams{
		Requests: 200, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1200, SetEvery: 5, Seed: 7,
	}
	r, err := redisapp.ClusterProdBench(cl, p, redisapp.ProdParams{Kind: redisapp.KSSharded, Cores: cores})
	check(err)
	t := r.Traffic
	st := r.PerServer[0]
	fmt.Printf("%s keyspace, %d cores/node, %d workers\n", redisapp.KSSharded, cores, st.Workers)
	fmt.Printf("done %d/%d requests, %d misses, p50=%d p99=%d cycles\n",
		t.Done, t.Sent, t.Misses, t.P50, t.P99)
	for w, ws := range st.PerWorker {
		fmt.Printf("worker %d: %d ops, %d fsync batches, %d AOF records\n",
			w, ws.Ops, ws.FsyncBatches, ws.AOFRecords)
	}
	fmt.Printf("aof: %d records, %d bytes on disk\n", st.AOFRecords, st.AOFFileBytes)
	if st.ReplayDigest != st.LiveDigest {
		panic(fmt.Sprintf("AOF replay digest %016x != live %016x", st.ReplayDigest, st.LiveDigest))
	}
	fmt.Printf("recovery: AOF replay rebuilt the keyspace (digest %016x)\n", st.LiveDigest)

	// Output:
	// sharded keyspace, 2 cores/node, 4 workers
	// done 200/200 requests, 0 misses, p50=5514643 p99=6579298 cycles
	// worker 0: 32 ops, 9 fsync batches, 10 AOF records
	// worker 1: 49 ops, 9 fsync batches, 11 AOF records
	// worker 2: 89 ops, 13 fsync batches, 14 AOF records
	// worker 3: 30 ops, 5 fsync batches, 5 AOF records
	// aof: 72 records, 20088 bytes on disk
	// recovery: AOF replay rebuilt the keyspace (digest f895d08d033ed5fc)
}

// Example_cluster boots machines joined by a deterministically-arbitrated
// switch. Every byte travels the whole simulated path: a kernel socket
// syscall produces TCP-lite frames into the sender's NIC TX ring, the
// switch carries them store-and-forward into the receiver's RX ring, and
// a doorbell IPI wakes the receiving task out of its socket wait.
//
// Part 1 is a raw socket echo between two machines (listen, accept,
// connect, send, recv, close). Part 2 is the open-loop cluster benchmark:
// zipfian GET/SET traffic fanned round-robin across two miniature-Redis
// servers over pipelined connections, reporting client-observed latency
// percentiles and each NIC's device counters.
func Example_cluster() {
	check(clusterEcho())
	check(clusterBench())

	// Output:
	// echo across machines: "stramash over the wire" (client done at cycle 43408)
	//   NIC m0: {TxFrames:5 RxFrames:4 TxBytes:137 RxBytes:114 Doorbells:5 Retransmits:0 RxOccHW:2}
	//   NIC m1: {TxFrames:4 RxFrames:5 TxBytes:114 RxBytes:137 Doorbells:4 Retransmits:0 RxOccHW:2}
	//
	// cluster bench: 200 requests over 2 servers, 0 misses
	//   latency p50=701545 p99=1105220 cycles, span 1301220 cycles
	//   server 1: served 100 in 1215674 cycles
	//   server 2: served 100 in 1324568 cycles
	//   NIC m0: {TxFrames:112 RxFrames:109 TxBytes:11496 RxBytes:49587 Doorbells:112 Retransmits:0 RxOccHW:7}
	//   NIC m1: {TxFrames:49 RxFrames:50 TxBytes:22107 RxBytes:8170 Doorbells:49 Retransmits:0 RxOccHW:4}
	//   NIC m2: {TxFrames:60 RxFrames:62 TxBytes:27480 RxBytes:3326 Doorbells:60 Retransmits:0 RxOccHW:5}
}

// clusterEcho sends a greeting from machine 0 to a server on machine 1 and
// reads it back, all through kernel socket syscalls.
func clusterEcho() error {
	cl, err := machine.NewCluster([]machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS},
	}, net.DefaultFabricConfig())
	if err != nil {
		return err
	}

	msg := []byte("stramash over the wire")
	var got []byte
	results, err := cl.RunTasks(
		machine.ClusterTask{Mach: 1, TaskSpec: machine.TaskSpec{
			Name: "echo-server", Origin: mem.NodeX86,
			Body: func(t *kernel.Task) error {
				lfd, err := t.SocketListen(7)
				if err != nil {
					return err
				}
				fd, err := t.SocketAccept(lfd)
				if err != nil {
					return err
				}
				for {
					p, err := t.RecvSock(fd, 256)
					if err == io.EOF {
						break
					}
					if err != nil {
						return err
					}
					if _, err := t.SendSock(fd, p); err != nil {
						return err
					}
				}
				if err := t.CloseSock(fd); err != nil {
					return err
				}
				return t.CloseSock(lfd)
			},
		}},
		machine.ClusterTask{Mach: 0, TaskSpec: machine.TaskSpec{
			Name: "echo-client", Origin: mem.NodeArm,
			Body: func(t *kernel.Task) error {
				fd, err := t.SocketConnect(net.Addr{Mach: 1, Port: 7})
				if err != nil {
					return err
				}
				if _, err := t.SendSock(fd, msg); err != nil {
					return err
				}
				for len(got) < len(msg) {
					p, err := t.RecvSock(fd, 256)
					if err != nil {
						return err
					}
					got = append(got, p...)
				}
				return t.CloseSock(fd)
			},
		}},
	)
	if err != nil {
		return err
	}
	fmt.Printf("echo across machines: %q (client done at cycle %d)\n", got, results[1].End)
	fmt.Printf("  NIC m0: %+v\n  NIC m1: %+v\n\n", cl.NICStats(0), cl.NICStats(1))
	return nil
}

// clusterBench runs the cluster benchmark: machine 0 generates open-loop
// zipfian traffic, machines 1 and 2 each serve half the requests.
func clusterBench() error {
	mk := func() machine.Config {
		return machine.Config{Model: mem.Shared, OS: machine.StramashOS}
	}
	cl, err := machine.NewCluster([]machine.Config{mk(), mk(), mk()}, net.DefaultFabricConfig())
	if err != nil {
		return err
	}
	r, err := redisapp.ClusterBench(cl, redisapp.TrafficParams{
		Requests: 200, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1000, SetEvery: 10, Seed: 42,
	})
	if err != nil {
		return err
	}
	t := r.Traffic
	fmt.Printf("cluster bench: %d requests over %d servers, %d misses\n", t.Done, r.Servers, t.Misses)
	fmt.Printf("  latency p50=%d p99=%d cycles, span %d cycles\n", t.P50, t.P99, t.Elapsed)
	for s, st := range r.PerServer {
		fmt.Printf("  server %d: served %d in %d cycles\n", s+1, st.Served, st.ServeCycles)
	}
	for m := 0; m < 3; m++ {
		fmt.Printf("  NIC m%d: %+v\n", m, cl.NICStats(m))
	}
	return nil
}

// Example_tenants boots one fused-kernel machine with a capability
// namespace: a "prod" tenant with room to work and a "batch" tenant with a
// tight memory budget and no right to touch prod's files. Every privileged
// syscall a tenant task makes (open, mmap, futex, clone) is checked
// against its grants deny-by-default, and resource charges are refused at
// budget. Finally a root task revokes batch's file capability, and batch's
// already open descriptor fails its next write with a typed error.
func Example_tenants() {
	m, err := machine.New(machine.Config{
		Model: mem.Shared,
		OS:    machine.StramashOS,
		Sched: kernel.SchedTimeSlice,
		Tenants: []machine.TenantSpec{
			{
				Name:   "prod",
				Budget: cap.Budget{Frames: 1024, CacheFrames: 1024, CPUShare: 100},
				Grants: []string{"file:/prod", "futex", "vma"},
			},
			{
				Name:   "batch",
				Budget: cap.Budget{Frames: 4, CacheFrames: 2, CPUShare: 25},
				Grants: []string{"file:/batch", "vma"},
			},
		},
	})
	check(err)

	specs := []machine.TaskSpec{
		{
			Name: "prod", Origin: mem.NodeX86, Tenant: "prod",
			Body: func(t *kernel.Task) error {
				// Prod works freely inside its grants.
				if err := t.Mkdir("/prod"); err != nil {
					return err
				}
				fd, err := t.OpenFile("/prod/data", vfs.OWrite|vfs.OCreate)
				if err != nil {
					return err
				}
				if _, err := t.WriteFileAt(fd, []byte("orders"), 0); err != nil {
					return err
				}
				fmt.Println("prod: wrote /prod/data under its file grant")
				return t.CloseFile(fd)
			},
		},
		{
			Name: "batch", Origin: mem.NodeArm, Tenant: "batch",
			Body: func(t *kernel.Task) error {
				// Denied: batch holds no capability for prod's namespace.
				if _, err := t.OpenFile("/prod/data", vfs.ORead); err != nil {
					var ce *cap.CapError
					if !errors.As(err, &ce) || ce.Reason != cap.Denied {
						return err
					}
					fmt.Printf("batch: denied at prod's file: %v\n", err)
				}
				// Refused at budget: batch may mmap, but only 4 frames may
				// ever be resident at once.
				heap, err := t.Mmap(16*4096, kernel.VMARead|kernel.VMAWrite, "heap")
				if err != nil {
					return err
				}
				touched := 0
				for page := 0; page < 16; page++ {
					if err := t.Store(heap+pgtable.VirtAddr(page*4096), 8, 1); err != nil {
						var ce *cap.CapError
						if !errors.As(err, &ce) || ce.Reason != cap.BudgetExhausted {
							return err
						}
						fmt.Printf("batch: frame budget refused page %d: %v\n", page, err)
						break
					}
					touched++
				}
				fmt.Printf("batch: touched %d pages before the budget refused\n", touched)
				// Revoked mid-flight: write to our own open descriptor after
				// root pulls the file capability.
				if err := t.Mkdir("/batch"); err != nil {
					return err
				}
				fd, err := t.OpenFile("/batch/scratch", vfs.OWrite|vfs.OCreate)
				if err != nil {
					return err
				}
				if _, err := t.WriteFileAt(fd, []byte("spill"), 0); err != nil {
					return err
				}
				t.Compute(400_000) // work past the admin's revocation
				if _, err := t.WriteFileAt(fd, []byte("spill"), 8); err != nil {
					var ce *cap.CapError
					if !errors.As(err, &ce) || ce.Reason != cap.Revoked {
						return err
					}
					fmt.Printf("batch: live descriptor died after revocation: %v\n", err)
					return nil
				}
				return fmt.Errorf("batch: write succeeded after revocation")
			},
		},
		{
			Name: "admin", Origin: mem.NodeX86,
			Body: func(t *kernel.Task) error {
				// Root task (no tenant): pays no capability costs, and may
				// revoke. Pull batch's file grant mid-run; the revocation
				// cascades to every descriptor capability derived from it.
				t.Compute(150_000)
				id, ok := m.Ctx.Caps.Table.Find(m.Tenant("batch"), cap.File, "/batch")
				if !ok {
					return fmt.Errorf("admin: batch file grant not found")
				}
				n, err := t.RevokeCap(id)
				if err != nil {
					return err
				}
				fmt.Printf("admin: revoked batch's file grant (%d capabilities died)\n", n)
				return nil
			},
		},
	}
	_, err = m.RunTasks(specs...)
	check(err)

	fmt.Println()
	for _, ten := range m.Ctx.Caps.Tenants() {
		st := ten.Stats
		fmt.Printf("tenant %-6s caps checked %3d | denials %2d | revocations %d | quota hits %d\n",
			ten.Name, st.CapsChecked, st.Denials, st.Revocations, st.QuotaHits)
	}

	// Output:
	// batch: denied at prod's file: cap: open: tenant batch: denied: file /prod/data
	// prod: wrote /prod/data under its file grant
	// batch: frame budget refused page 4: kernel: fault at 0x200000004000 (write=true) on arm: cap: map-frame: tenant batch: budget-exhausted: frames 4/4
	// batch: touched 4 pages before the budget refused
	// admin: revoked batch's file grant (2 capabilities died)
	// batch: live descriptor died after revocation: cap: fd: tenant batch: revoked (cap 7): /batch/scratch
	//
	// tenant prod   caps checked   3 | denials  0 | revocations 0 | quota hits 0
	// tenant batch  caps checked   6 | denials  2 | revocations 2 | quota hits 1
}
