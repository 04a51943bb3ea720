package redisapp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/vfs"
)

// TestStoreErrorTable pins the typed error surface: kind strings, the
// Error() rendering, and that the execute paths surface the right kind.
func TestStoreErrorTable(t *testing.T) {
	cases := []struct {
		err      *StoreError
		kind     StoreErrorKind
		contains string
	}{
		{&StoreError{Kind: ErrArenaExhausted, Op: "alloc", Size: 5000, Limit: 4096}, ErrArenaExhausted, "arena exhausted"},
		{&StoreError{Kind: ErrValueTooLarge, Op: "set", Size: 1 << 20, Limit: maxStoreVal}, ErrValueTooLarge, "value too large"},
	}
	for i, c := range cases {
		var se *StoreError
		if !errors.As(error(c.err), &se) || se.Kind != c.kind {
			t.Fatalf("case %d: errors.As failed or kind mismatch", i)
		}
		if msg := c.err.Error(); !bytes.Contains([]byte(msg), []byte(c.contains)) {
			t.Fatalf("case %d: %q does not mention %q", i, msg, c.contains)
		}
	}
}

// TestStoreValueTooLarge drives the cap through every value-bearing
// command.
func TestStoreValueTooLarge(t *testing.T) {
	withStore(t, func(task *kernel.Task, s *Store) error {
		big := make([]byte, maxStoreVal+1)
		checks := []struct {
			op  string
			err error
		}{
			{"set", s.Set(task, []byte("k"), big)},
			{"push", s.Push(task, []byte("l"), big, true)},
		}
		_, saddErr := s.SAdd(task, []byte("s"), big)
		checks = append(checks, struct {
			op  string
			err error
		}{"sadd", saddErr})
		for _, c := range checks {
			var se *StoreError
			if !errors.As(c.err, &se) || se.Kind != ErrValueTooLarge {
				t.Errorf("%s(oversized) = %v, want ErrValueTooLarge", c.op, c.err)
			}
		}
		return nil
	})
}

// TestBenchParamsValidate is the satellite's table test over the ring
// benchmark's parameter surface.
func TestBenchParamsValidate(t *testing.T) {
	good := BenchParams{Command: CmdGet, Requests: 10, PayloadBytes: 64, Keys: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	cases := []struct {
		name  string
		mut   func(*BenchParams)
		field string
	}{
		{"zero command", func(p *BenchParams) { p.Command = 0 }, "Command"},
		{"bad command", func(p *BenchParams) { p.Command = 99 }, "Command"},
		{"zero requests", func(p *BenchParams) { p.Requests = 0 }, "Requests"},
		{"negative requests", func(p *BenchParams) { p.Requests = -5 }, "Requests"},
		{"zero payload", func(p *BenchParams) { p.PayloadBytes = 0 }, "PayloadBytes"},
		{"oversized payload", func(p *BenchParams) { p.PayloadBytes = maxRRPayload + 1 }, "PayloadBytes"},
		{"zero keys", func(p *BenchParams) { p.Keys = 0 }, "Keys"},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		err := p.Validate()
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != c.field {
			t.Errorf("%s: Validate() = %v, want ParamError on %s", c.name, err, c.field)
		}
	}
}

// TestTrafficParamsValidate covers the traffic generator's surface,
// including the hoisted requests<servers livelock rejection.
func TestTrafficParamsValidate(t *testing.T) {
	good := quickTraffic()
	if err := good.Validate(2); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	cases := []struct {
		name    string
		mut     func(*TrafficParams)
		servers int
		field   string
	}{
		{"no servers", func(p *TrafficParams) {}, 0, "servers"},
		{"zero requests", func(p *TrafficParams) { p.Requests = 0 }, 2, "Requests"},
		{"requests below servers", func(p *TrafficParams) { p.Requests = 1 }, 2, "Requests"},
		{"zero clients", func(p *TrafficParams) { p.Clients = 0 }, 2, "Clients"},
		{"zero payload", func(p *TrafficParams) { p.PayloadBytes = 0 }, 2, "PayloadBytes"},
		{"oversized payload", func(p *TrafficParams) { p.PayloadBytes = maxNetVal + 1 }, 2, "PayloadBytes"},
		{"zero keys", func(p *TrafficParams) { p.Keys = 0 }, 2, "Keys"},
		{"negative gap", func(p *TrafficParams) { p.InterArrival = -1 }, 2, "InterArrival"},
		{"negative setevery", func(p *TrafficParams) { p.SetEvery = -1 }, 2, "SetEvery"},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		err := p.Validate(c.servers)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != c.field {
			t.Errorf("%s: Validate(%d) = %v, want ParamError on %s", c.name, c.servers, err, c.field)
		}
	}
}

// diffCommands is the shared command stream for the differential digest
// test: every command type, keys that collide across buckets, values of
// varying sizes.
func diffCommands() []queuedProd {
	var cmds []queuedProd
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("key:%03d", i%7))
		val := bytes.Repeat([]byte{byte(i + 1)}, 16+i*3)
		switch i % 8 {
		case 0, 1:
			cmds = append(cmds, queuedProd{cmd: CmdSet, key: key, val: val})
		case 2:
			cmds = append(cmds, queuedProd{cmd: CmdGet, key: key})
		case 3:
			cmds = append(cmds, queuedProd{cmd: CmdLPush, key: key, val: val})
		case 4:
			cmds = append(cmds, queuedProd{cmd: CmdRPush, key: key, val: val})
		case 5:
			cmds = append(cmds, queuedProd{cmd: CmdLPop, key: key})
		case 6:
			cmds = append(cmds, queuedProd{cmd: CmdSAdd, key: key, val: val})
		case 7:
			cmds = append(cmds, queuedProd{cmd: CmdMSet, key: key, val: val})
		}
	}
	return cmds
}

// TestKeyspaceDifferentialDigest runs one command stream through the seed
// single-thread store, the sharded keyspace, and the locked keyspace on
// the same machine, and requires identical layout-independent digests.
// Per-key ordering is preserved by the routing function, exactly as the
// production frontend preserves it.
func TestKeyspaceDifferentialDigest(t *testing.T) {
	m, err := machine.New(machine.Config{
		Model: mem.Shared, OS: machine.StramashOS,
		Cores: 2, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var seedDigest, shardDigest, lockDigest uint64
	_, err = m.RunSingle("diff", mem.NodeX86, func(task *kernel.Task) error {
		cmds := diffCommands()

		arena, err := NewArena(task, 16<<20, "seed.heap")
		if err != nil {
			return err
		}
		seed, err := NewStore(task, arena, 128)
		if err != nil {
			return err
		}
		for _, c := range cmds {
			if _, _, err := netExecute(task, seed, c.cmd, c.key, c.val); err != nil {
				return err
			}
		}
		if seedDigest, err = seed.Digest(task); err != nil {
			return err
		}

		sharded, err := NewStoreSharded(task, workers, 4<<20, 32)
		if err != nil {
			return err
		}
		for _, c := range cmds {
			w := routeKey(task, c.key, workers)
			if _, _, err := sharded.Exec(task, w, c.cmd, c.key, c.val); err != nil {
				return err
			}
		}
		if shardDigest, err = sharded.Digest(task); err != nil {
			return err
		}

		larena, err := NewSharedArena(task, 16<<20, "lock.heap")
		if err != nil {
			return err
		}
		lstore, err := NewStore(task, larena, 64)
		if err != nil {
			return err
		}
		locked, err := NewStoreLocked(task, lstore, 8)
		if err != nil {
			return err
		}
		for _, c := range cmds {
			w := routeKey(task, c.key, workers)
			if _, _, err := locked.Exec(task, w, c.cmd, c.key, c.val); err != nil {
				return err
			}
		}
		lockDigest, err = locked.Digest(task)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if seedDigest == 0 {
		t.Fatal("seed digest is zero — empty store?")
	}
	if shardDigest != seedDigest {
		t.Errorf("sharded digest %x != seed %x", shardDigest, seedDigest)
	}
	if lockDigest != seedDigest {
		t.Errorf("locked digest %x != seed %x", lockDigest, seedDigest)
	}
}

// TestAOFCrashPointReplay truncates the log at every record boundary
// (plus a partial tail past it) and requires the recovered store to match
// a prefix oracle's digest at that point.
func TestAOFCrashPointReplay(t *testing.T) {
	m := newM(t, machine.StramashOS)
	_, err := m.RunSingle("crash", mem.NodeX86, func(task *kernel.Task) error {
		cmds := diffCommands()
		// Record stream and per-prefix oracle digests. Pops only log when
		// they hit, so build the record list by executing against the
		// oracle as we go.
		oarena, err := NewArena(task, 16<<20, "oracle.heap")
		if err != nil {
			return err
		}
		oracle, err := NewStore(task, oarena, 128)
		if err != nil {
			return err
		}
		var records [][]byte
		var digests []uint64 // digests[i] = oracle digest after records[:i]
		d0, err := oracle.Digest(task)
		if err != nil {
			return err
		}
		digests = append(digests, d0)
		for _, c := range cmds {
			_, miss, err := netExecute(task, oracle, c.cmd, c.key, c.val)
			if err != nil {
				return err
			}
			if !mutatesStore(c.cmd, miss) {
				continue
			}
			records = append(records, encodeAOFRecord(c.cmd, c.key, c.val))
			d, err := oracle.Digest(task)
			if err != nil {
				return err
			}
			digests = append(digests, d)
		}
		if len(records) < 10 {
			return fmt.Errorf("only %d mutation records — stream too thin to test", len(records))
		}
		for cut := 0; cut <= len(records); cut++ {
			var blob []byte
			for _, r := range records[:cut] {
				blob = append(blob, r...)
			}
			if cut < len(records) {
				// A crash mid-append leaves part of the next record.
				tail := records[cut]
				blob = append(blob, tail[:len(tail)/2]...)
			}
			path := fmt.Sprintf("/crash%03d.aof", cut)
			fd, err := task.OpenFile(path, vfs.OWrite|vfs.OCreate)
			if err != nil {
				return err
			}
			if len(blob) > 0 {
				if _, err := task.WriteFileAt(fd, blob, 0); err != nil {
					return err
				}
			}
			if err := task.CloseFile(fd); err != nil {
				return err
			}
			rarena, err := NewArena(task, 16<<20, fmt.Sprintf("recover%d", cut))
			if err != nil {
				return err
			}
			rstore, err := NewStore(task, rarena, 64)
			if err != nil {
				return err
			}
			applied, err := RecoverAOF(task, path, rstore)
			if err != nil {
				return err
			}
			if applied != cut {
				return fmt.Errorf("cut %d: replay applied %d records", cut, applied)
			}
			got, err := rstore.Digest(task)
			if err != nil {
				return err
			}
			if got != digests[cut] {
				return fmt.Errorf("cut %d: recovered digest %x != oracle %x", cut, got, digests[cut])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzAOFRecord round-trips the AOF codec: a decoded record must
// re-encode to the exact consumed bytes, and decode must never panic or
// mis-frame on arbitrary input.
func FuzzAOFRecord(f *testing.F) {
	f.Add(encodeAOFRecord(CmdSet, []byte("key:000001"), bytes.Repeat([]byte{7}, 64)))
	f.Add(encodeAOFRecord(CmdLPop, []byte("l:key"), nil))
	f.Add([]byte{0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		cmd, key, val, rest, ok, err := decodeAOFRecord(data)
		if err != nil || !ok {
			return
		}
		consumed := len(data) - len(rest)
		re := encodeAOFRecord(cmd, key, val)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:consumed])
		}
		c2, k2, v2, r2, ok2, err2 := decodeAOFRecord(re)
		if err2 != nil || !ok2 || c2 != cmd || !bytes.Equal(k2, key) || !bytes.Equal(v2, val) || len(r2) != 0 {
			t.Fatalf("round trip diverged: ok=%v err=%v", ok2, err2)
		}
	})
}

// newProdCluster builds loadgen + one production server machine.
func newProdCluster(t testing.TB, cores int, regime vfs.Regime) *machine.Cluster {
	t.Helper()
	cfgs := []machine.Config{
		{Model: mem.Shared, OS: machine.StramashOS},
		{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime,
			Cores: cores, Sched: kernel.SchedTimeSlice, SchedQuantum: 20_000},
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

func prodTraffic() TrafficParams {
	return TrafficParams{
		Requests: 96, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1200, SetEvery: 5, Seed: 7,
	}
}

// expectedAOFRecords is populate + one record per SET in the stream.
func expectedAOFRecords(p TrafficParams) int {
	sets := 0
	if p.SetEvery > 0 {
		sets = (p.Requests + p.SetEvery - 1) / p.SetEvery
	}
	return p.Keys + sets
}

// runProd drives one production server end to end.
func runProd(t testing.TB, kind KeyspaceKind, cores int, regime vfs.Regime) ProdClusterResult {
	t.Helper()
	cl := newProdCluster(t, cores, regime)
	p := prodTraffic()
	r, err := ClusterProdBench(cl, p, ProdParams{Kind: kind, Cores: cores})
	if err != nil {
		t.Fatalf("ClusterProdBench(%v): %v", kind, err)
	}
	return r
}

// checkProd asserts the invariants every production run must satisfy.
func checkProd(t *testing.T, r ProdClusterResult, kind KeyspaceKind) {
	t.Helper()
	p := prodTraffic()
	if r.Traffic.Done != p.Requests || r.Traffic.Sent != p.Requests {
		t.Fatalf("%v: sent %d done %d, want %d", kind, r.Traffic.Sent, r.Traffic.Done, p.Requests)
	}
	if r.Traffic.Misses != 0 {
		t.Fatalf("%v: %d misses on a pre-populated keyspace", kind, r.Traffic.Misses)
	}
	st := r.PerServer[0]
	if st.Served != p.Requests {
		t.Fatalf("%v: server served %d, want %d", kind, st.Served, p.Requests)
	}
	var workerOps int64
	busyWorkers := 0
	for _, w := range st.PerWorker {
		workerOps += w.Ops
		if w.Ops > 0 {
			busyWorkers++
		}
	}
	if workerOps != int64(p.Requests) {
		t.Fatalf("%v: worker ops sum %d, want %d", kind, workerOps, p.Requests)
	}
	if busyWorkers < 2 {
		t.Fatalf("%v: only %d workers saw traffic — routing degenerate", kind, busyWorkers)
	}
	if st.LiveDigest == 0 || st.LiveDigest != st.ReplayDigest {
		t.Fatalf("%v: replay digest %x != live digest %x", kind, st.ReplayDigest, st.LiveDigest)
	}
	if want := expectedAOFRecords(p); st.AOFRecords != want {
		t.Fatalf("%v: %d AOF records, want %d", kind, st.AOFRecords, want)
	}
	if st.AOFFileBytes == 0 {
		t.Fatalf("%v: AOF file empty", kind)
	}
	var batches int64
	for _, w := range st.PerWorker {
		batches += w.FsyncBatches
	}
	if batches == 0 {
		t.Fatalf("%v: no group-commit batches flushed by workers", kind)
	}
}

// TestServeProdSharded and TestServeProdLocked are the end-to-end runs of
// the two keyspace regimes over the wire.
func TestServeProdSharded(t *testing.T) {
	checkProd(t, runProd(t, KSSharded, 2, vfs.RegimeFused), KSSharded)
}

func TestServeProdLocked(t *testing.T) {
	r := runProd(t, KSLocked, 2, vfs.RegimeFused)
	checkProd(t, r, KSLocked)
	var waits int64
	for _, w := range r.PerServer[0].PerWorker {
		waits += w.FutexWaits
	}
	// Contended bucket locks should put at least one worker to sleep; if
	// not, the locked regime degenerated into the sharded one.
	t.Logf("locked regime futex waits: %d", waits)
}

// TestServeProdCrossRegimeDigest pins response-content identity between
// the sharded and locked keyspaces for the same traffic.
func TestServeProdCrossRegimeDigest(t *testing.T) {
	sh := runProd(t, KSSharded, 2, vfs.RegimeFused)
	lk := runProd(t, KSLocked, 2, vfs.RegimeFused)
	if sh.Traffic.Digest != lk.Traffic.Digest {
		t.Fatalf("response digests diverge: sharded %x locked %x", sh.Traffic.Digest, lk.Traffic.Digest)
	}
	if sh.PerServer[0].LiveDigest != lk.PerServer[0].LiveDigest {
		t.Fatalf("store digests diverge: sharded %x locked %x",
			sh.PerServer[0].LiveDigest, lk.PerServer[0].LiveDigest)
	}
}

// TestServeProdEngineIdentity pins run-to-run determinism for both
// regimes, including worker counters and digests.
func TestServeProdEngineIdentity(t *testing.T) {
	for _, kind := range []KeyspaceKind{KSSharded, KSLocked} {
		first := runProd(t, kind, 2, vfs.RegimeFused)
		again := runProd(t, kind, 2, vfs.RegimeFused)
		if first.Traffic != again.Traffic {
			t.Fatalf("%v: traffic diverged:\nfirst %+v\nagain %+v", kind, first.Traffic, again.Traffic)
		}
		if !reflect.DeepEqual(first.PerServer, again.PerServer) {
			t.Fatalf("%v: server stats diverged:\nfirst %+v\nagain %+v", kind, first.PerServer, again.PerServer)
		}
	}
}

// TestServeProdPopcornRegime runs the locked keyspace over the
// DSM-replicated page cache: persistence must still replay correctly and
// the fsync counters must show message-paying flushes.
func TestServeProdPopcornRegime(t *testing.T) {
	r := runProd(t, KSLocked, 1, vfs.RegimePopcorn)
	checkProd(t, r, KSLocked)
}
