package experiments

// Golden tests extending the tracing contract to the network subsystem:
// tracing a cluster run must not perturb simulated time, the traced stream
// must carry the NIC/socket event kinds, and the stream must be
// byte-identical whether the run executes alone or inside the parallel
// experiment pool.

import (
	"context"
	"fmt"
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
func tracedClusterRun(traced bool) (sim.Cycles, *trace.Buffer, error) {
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
		return 0, nil, err
	}
	r, err := redisapp.ClusterBench(cl, redisapp.TrafficParams{
		Requests: 60, Clients: 8, PayloadBytes: 128, Keys: 16,
		ZipfS: 1.0, InterArrival: 1200, SetEvery: 10, Seed: 7,
	})
	if err != nil {
		return 0, nil, err
	}
	return r.Traffic.Elapsed, buf, nil
}

// TestTraceGoldenNetEvents is the network analogue of the VFS golden test:
// observer-effect freedom, required event kinds, and byte-identity between
// the sequential reference and pool runs.
func TestTraceGoldenNetEvents(t *testing.T) {
	plainCycles, _, err := tracedClusterRun(false)
	if err != nil {
		t.Fatal(err)
	}
	refCycles, ref, err := tracedClusterRun(true)
	if err != nil {
		t.Fatal(err)
	}
	if plainCycles != refCycles {
		t.Errorf("untraced %d cycles, traced %d — tracing perturbed the cluster run", plainCycles, refCycles)
	}
	refText := ref.Text()
	for _, name := range []string{"nic-doorbell", "sock-send", "sock-recv", "ring-enqueue", "ring-dequeue", "doorbell"} {
		if !strings.Contains(refText, name) {
			t.Errorf("cluster trace is missing %q events", name)
		}
	}

	const runs = 2
	texts := make([]string, runs)
	specs := make([]Spec, runs)
	for i := range specs {
		i := i
		specs[i] = Spec{ID: fmt.Sprintf("traced-cluster-%d", i), Run: func(Scale, int) (Result, error) {
			c, buf, err := tracedClusterRun(true)
			if err != nil {
				return nil, err
			}
			if c != refCycles {
				return nil, fmt.Errorf("pool run: %d cycles, reference %d", c, refCycles)
			}
			texts[i] = buf.Text()
			return fakeResult{name: "traced cluster", body: "ok\n"}, nil
		}}
	}
	outcomes := RunPool(context.Background(), specs, Quick, PoolOptions{Parallelism: runs})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	for i := 0; i < runs; i++ {
		if texts[i] != refText {
			t.Errorf("pool run %d: cluster trace differs from sequential reference (%d vs %d bytes)",
				i, len(texts[i]), len(refText))
		}
	}
}
