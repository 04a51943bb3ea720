package redisapp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
)

func newTestCluster(t *testing.T, os machine.OSKind, model mem.Model, machines int) *machine.Cluster {
	t.Helper()
	cfgs := make([]machine.Config, machines)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: model, OS: os}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

func quickTraffic() TrafficParams {
	return TrafficParams{
		Requests: 120, Clients: 16, PayloadBytes: 256, Keys: 32,
		ZipfS: 1.0, InterArrival: 1500, SetEvery: 10, Seed: 7,
	}
}

// TestClusterBenchServes drives the full path — generator on machine 0,
// two servers — and checks conservation: every request sent is served and
// answered, with no misses (GETs hit the pre-populated keyspace).
func TestClusterBenchServes(t *testing.T) {
	cl := newTestCluster(t, machine.StramashOS, mem.Shared, 3)
	p := quickTraffic()
	r, err := ClusterBench(cl, p)
	if err != nil {
		t.Fatalf("ClusterBench: %v", err)
	}
	if r.Traffic.Done != p.Requests || r.Traffic.Sent != p.Requests {
		t.Fatalf("sent %d done %d, want %d", r.Traffic.Sent, r.Traffic.Done, p.Requests)
	}
	if r.Traffic.Misses != 0 {
		t.Fatalf("unexpected misses: %d", r.Traffic.Misses)
	}
	total := 0
	for s, st := range r.PerServer {
		if st.Served == 0 {
			t.Fatalf("server %d served nothing", s)
		}
		total += st.Served
	}
	if total != p.Requests {
		t.Fatalf("servers served %d, want %d", total, p.Requests)
	}
	if r.Traffic.P50 <= 0 || r.Traffic.P99 < r.Traffic.P50 {
		t.Fatalf("implausible latency percentiles p50=%d p99=%d", r.Traffic.P50, r.Traffic.P99)
	}
	for m := 0; m < 3; m++ {
		ns := cl.NICStats(m)
		if ns.TxFrames == 0 || ns.RxFrames == 0 {
			t.Fatalf("machine %d NIC idle: %+v", m, ns)
		}
	}
}

// TestClusterBenchFusedPopcornDigest is the cross-personality content
// check: the fused and multiple-kernel clusters must serve byte-identical
// responses (equal digests) for the same traffic.
func TestClusterBenchFusedPopcornDigest(t *testing.T) {
	p := quickTraffic()
	fused, err := ClusterBench(newTestCluster(t, machine.StramashOS, mem.Shared, 3), p)
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	pop, err := ClusterBench(newTestCluster(t, machine.PopcornSHM, mem.Separated, 3), p)
	if err != nil {
		t.Fatalf("popcorn: %v", err)
	}
	if fused.Traffic.Digest != pop.Traffic.Digest {
		t.Fatalf("digest mismatch: fused %x popcorn %x", fused.Traffic.Digest, pop.Traffic.Digest)
	}
	if fused.Traffic.Done != pop.Traffic.Done {
		t.Fatalf("done mismatch: fused %d popcorn %d", fused.Traffic.Done, pop.Traffic.Done)
	}
}

// TestClusterBenchEngineIdentity pins cluster-bench run-to-run
// determinism: two runs agree on every number the benchmark reports.
func TestClusterBenchEngineIdentity(t *testing.T) {
	p := quickTraffic()
	p.Requests = 80
	run := func() ClusterResult {
		r, err := ClusterBench(newTestCluster(t, machine.StramashOS, mem.Shared, 3), p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first, again := run(), run()
	if first.Traffic != again.Traffic {
		t.Fatalf("traffic diverged:\nfirst %+v\nagain %+v", first.Traffic, again.Traffic)
	}
	for s := range first.PerServer {
		if !reflect.DeepEqual(first.PerServer[s], again.PerServer[s]) {
			t.Fatalf("server %d diverged:\nfirst %+v\nagain %+v", s, first.PerServer[s], again.PerServer[s])
		}
	}
}

// TestDecodeRequestRejectsCorruptHeaders exercises the stream decoder's
// bounds checks on the socket server's wire input.
func TestDecodeRequestRejectsCorruptHeaders(t *testing.T) {
	good := appendRequest(nil, CmdSet, []byte("k"), []byte("v"))
	if _, _, _, _, ok, err := decodeRequest(good); err != nil || !ok {
		t.Fatalf("good request rejected: ok=%v err=%v", ok, err)
	}
	corrupt := [][]byte{
		{0, 1, 0, 0, 0, 0, 0, 0, 0, 'k'},             // cmd 0
		{99, 1, 0, 0, 0, 0, 0, 0, 0, 'k'},            // cmd out of range
		{1, 0, 0, 0, 0, 0, 0, 0, 0},                  // klen 0
		{1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0},      // klen huge
		{2, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 'k'}, // vlen huge
	}
	for i, b := range corrupt {
		if _, _, _, _, _, err := decodeRequest(b); err == nil {
			t.Fatalf("corrupt header %d accepted", i)
		}
	}
	if _, _, _, _, ok, err := decodeRequest(good[:5]); err != nil || ok {
		t.Fatalf("truncated request should want more bytes: ok=%v err=%v", ok, err)
	}
}

// FuzzRequestCodec drives the socket server's wire codec with arbitrary
// bytes: neither decoder may panic, a decoded request or response must
// respect the stream bounds and re-encode to exactly the bytes it
// consumed, and appendRequest → decodeRequest round-trips.
func FuzzRequestCodec(f *testing.F) {
	f.Add(appendRequest(nil, CmdSet, []byte("key:000001"), bytes.Repeat([]byte{7}, 64)), byte(CmdSet), []byte("k"), []byte("v"))
	f.Add(appendRequest(nil, CmdGet, []byte("key:000002"), nil), byte(CmdGet), []byte("key"), []byte(nil))
	f.Add(appendResponse(nil, 1, []byte("payload")), byte(CmdMSet), bytes.Repeat([]byte{'k'}, maxNetKey), []byte("x"))
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, byte(0), []byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, data []byte, cmd byte, key, val []byte) {
		if c, k, v, rest, ok, err := decodeRequest(data); err == nil && ok {
			if len(k) == 0 || len(k) > maxNetKey || len(v) > maxNetVal {
				t.Fatalf("decodeRequest accepted klen=%d vlen=%d", len(k), len(v))
			}
			if re := appendRequest(nil, c, k, v); !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("request re-encode mismatch: %x vs %x", re, data[:len(data)-len(rest)])
			}
		}
		if st, pl, rest, ok, err := decodeResponse(data); err == nil && ok {
			if st > 1 || len(pl) > maxNetVal {
				t.Fatalf("decodeResponse accepted status=%d plen=%d", st, len(pl))
			}
			if re := appendResponse(nil, st, pl); !bytes.Equal(re, data[:len(data)-len(rest)]) {
				t.Fatalf("response re-encode mismatch: %x vs %x", re, data[:len(data)-len(rest)])
			}
		}
		if Command(cmd) < CmdGet || Command(cmd) > CmdMSet || len(key) == 0 || len(key) > maxNetKey || len(val) > maxNetVal {
			return
		}
		c, k, v, rest, ok, err := decodeRequest(appendRequest(nil, Command(cmd), key, val))
		if err != nil || !ok || c != Command(cmd) || !bytes.Equal(k, key) || !bytes.Equal(v, val) || len(rest) != 0 {
			t.Fatalf("round trip diverged: ok=%v err=%v", ok, err)
		}
	})
}
