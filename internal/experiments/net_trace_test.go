package experiments

// Golden tests extending the tracing contract to the network subsystem:
// tracing a cluster run must not perturb simulated time nor keep its wait
// loops from parking, the traced stream
// must carry the NIC/socket event kinds, and the stream must be
// byte-identical whether the run executes alone or inside the parallel
// experiment pool.

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/redisapp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedClusterRun executes a small 3-machine cluster benchmark,
// optionally traced. All machines share one clock universe, so they share
// one trace buffer too.
func tracedClusterRun(traced bool) (redisapp.TrafficResult, sim.EngineStats, *trace.Buffer, error) {
	var buf *trace.Buffer
	if traced {
		buf = trace.NewBuffer()
	}
	cfgs := make([]machine.Config, 3)
	for i := range cfgs {
		cfgs[i] = machine.Config{Model: mem.Shared, OS: machine.StramashOS}
		if traced {
			cfgs[i].Tracer = buf
		}
	}
	cl, err := machine.NewCluster(cfgs, net.DefaultFabricConfig())
	if err != nil {
		return redisapp.TrafficResult{}, sim.EngineStats{}, nil, err
	}
	r, err := redisapp.ClusterBench(cl, redisapp.TrafficParams{
		Requests: 60, Clients: 8, PayloadBytes: 128, Keys: 16,
		ZipfS: 1.0, InterArrival: 1200, SetEvery: 10, Seed: 7,
	})
	return r.Traffic, cl.EngineStats(), buf, err
}

// TestTraceGoldenNetEvents is the network analogue of the VFS golden test:
// observer-effect freedom, parks under a tracer, required event kinds, and
// byte-identity between the sequential reference and pool runs.
func TestTraceGoldenNetEvents(t *testing.T) {
	plain, _, _, err := tracedClusterRun(false)
	if err != nil {
		t.Fatal(err)
	}
	traffic, es, ref, err := tracedClusterRun(true)
	if err != nil {
		t.Fatal(err)
	}
	if traffic != plain {
		t.Errorf("untraced %+v, traced %+v — tracing perturbed the cluster run", plain, traffic)
	}
	if es.Replayed == 0 {
		t.Error("the traced run replayed no yield point: tracing kept its wait loops from parking")
	}
	refText := ref.Text()
	for _, name := range []string{"nic-doorbell", "sock-send", "sock-recv", "ring-enqueue", "ring-dequeue", "doorbell"} {
		if !strings.Contains(refText, name) {
			t.Errorf("cluster trace is missing %q events", name)
		}
	}

	poolTraces(t, 2, traffic.Elapsed, refText, func() (sim.Cycles, *trace.Buffer, error) {
		r, _, buf, err := tracedClusterRun(true)
		return r.Elapsed, buf, err
	})
}
