package experiments

// Golden tests for the tracing subsystem at the experiment level. The
// contract under test is twofold: (1) tracing is observer-effect-free —
// simulated cycle counts are identical with a tracer installed and
// without — and (2) the recorded event stream is deterministic — a traced
// run inside the parallel pool produces a byte-identical trace to the
// same run executed sequentially.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/microbench"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// tracedFutexRun executes the Figure 13 futex ping-pong on a fresh
// Stramash machine, optionally traced.
func tracedFutexRun(loops int, traced bool) (sim.Cycles, *trace.Buffer, error) {
	cfg := machine.Config{Model: mem.Shared, OS: machine.StramashOS}
	var buf *trace.Buffer
	if traced {
		buf = trace.NewBuffer()
		cfg.Tracer = buf
	}
	m, err := machine.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	res, err := microbench.RunFutexPingPong(m, loops)
	return res.Cycles, buf, err
}

// TestTracedCyclesEqualUntraced runs the futex experiment and an NPB
// benchmark with and without a tracer and demands identical simulated
// cycle counts — events record the simulation, they never advance it.
func TestTracedCyclesEqualUntraced(t *testing.T) {
	plainCycles, _, err := tracedFutexRun(30, false)
	if err != nil {
		t.Fatal(err)
	}
	tracedCycles, buf, err := tracedFutexRun(30, true)
	if err != nil {
		t.Fatal(err)
	}
	if plainCycles != tracedCycles {
		t.Errorf("futex: untraced %d cycles, traced %d — tracing perturbed timing", plainCycles, tracedCycles)
	}
	if buf.Len() == 0 {
		t.Error("traced futex run recorded no events")
	}

	runIS := func(tracer trace.Tracer) sim.Cycles {
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: machine.StramashOS, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		cycles, _, err := runBenchmark(m, "IS", Quick.class(), true)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	isBuf := trace.NewBuffer()
	plainIS, tracedIS := runIS(nil), runIS(isBuf)
	if plainIS != tracedIS {
		t.Errorf("IS: untraced %d cycles, traced %d — tracing perturbed timing", plainIS, tracedIS)
	}
	if isBuf.Len() == 0 {
		t.Error("traced IS run recorded no events")
	}
}

// poolTraces runs a traced run n times concurrently inside RunPool and
// demands each retire refCycles and record refText, the sequential
// reference's. Each run owns a private machine and buffer — the pool's
// concurrency must not leak into the simulated event stream.
func poolTraces(t *testing.T, n int, refCycles sim.Cycles, refText string, run func() (sim.Cycles, *trace.Buffer, error)) {
	t.Helper()
	texts := make([]string, n)
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{ID: fmt.Sprintf("traced-%d", i), Run: func(Scale, int) (Result, error) {
			c, buf, err := run()
			if err != nil {
				return nil, err
			}
			if c != refCycles {
				return nil, fmt.Errorf("pool run %d: %d cycles, sequential reference %d", i, c, refCycles)
			}
			texts[i] = buf.Text()
			return fakeResult{name: "traced", body: "ok\n"}, nil
		}}
	}
	for i, o := range RunPool(context.Background(), specs, Quick, PoolOptions{Parallelism: n}) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if texts[i] != refText {
			t.Errorf("pool run %d: trace differs from sequential reference (%d vs %d bytes)", i, len(texts[i]), len(refText))
		}
	}
}

// TestTraceGoldenSequentialVsPool records the futex experiment's trace
// once sequentially, then three more times concurrently inside RunPool,
// and demands every pool-recorded trace be byte-identical to the
// sequential reference.
func TestTraceGoldenSequentialVsPool(t *testing.T) {
	const loops = 30
	refCycles, ref, err := tracedFutexRun(loops, true)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Text() == "" {
		t.Fatal("sequential reference trace is empty")
	}
	poolTraces(t, 3, refCycles, ref.Text(), func() (sim.Cycles, *trace.Buffer, error) { return tracedFutexRun(loops, true) })
}

// tracedFileRun executes a small cross-node file workload under the given
// page-cache regime, optionally traced.
func tracedFileRun(regime vfs.Regime, traced bool) (sim.Cycles, *trace.Buffer, error) {
	cfg := machine.Config{Model: mem.Shared, OS: machine.StramashOS, FileCache: regime}
	var buf *trace.Buffer
	if traced {
		buf = trace.NewBuffer()
		cfg.Tracer = buf
	}
	m, err := machine.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	const pages = 4
	if _, err := m.RunSingle("producer", mem.NodeX86, func(tk *kernel.Task) error {
		fd, err := tk.CreateFile("/golden.dat")
		if err != nil {
			return err
		}
		buf := make([]byte, pages*mem.PageSize)
		for i := range buf {
			buf[i] = byte(i)
		}
		if _, err := tk.WriteFileAt(fd, buf, 0); err != nil {
			return err
		}
		return tk.CloseFile(fd)
	}); err != nil {
		return 0, nil, err
	}
	res, err := m.RunSingle("consumer", mem.NodeArm, func(tk *kernel.Task) error {
		fd, err := tk.OpenFile("/golden.dat", vfs.ORDWR)
		if err != nil {
			return err
		}
		p := make([]byte, mem.PageSize)
		for off := int64(0); off < pages*mem.PageSize; off += mem.PageSize {
			if _, err := tk.ReadFileAt(fd, p, off); err != nil {
				return err
			}
			if _, err := tk.WriteFileAt(fd, p[:16], off); err != nil {
				return err
			}
		}
		if err := tk.SyncFile(fd); err != nil {
			return err
		}
		if err := tk.CloseFile(fd); err != nil {
			return err
		}
		return tk.UnlinkFile("/golden.dat")
	})
	return res.Elapsed(), buf, err
}

// TestTraceGoldenVFSEvents extends the golden contract to the page-cache
// event kinds: tracing a file workload must not perturb its timing, the
// traced stream must be byte-identical between a sequential run and runs
// inside the parallel pool, and the stream must actually carry the VFS
// kinds each regime is expected to emit.
func TestTraceGoldenVFSEvents(t *testing.T) {
	for _, tc := range []struct {
		regime vfs.Regime
		want   []string // event names that must appear
		absent []string // event names that must not
	}{
		{vfs.RegimeFused,
			[]string{"page-cache-hit", "page-cache-miss", "page-cache-invalidate"},
			[]string{"page-cache-writeback"}},
		{vfs.RegimePopcorn,
			[]string{"page-cache-hit", "page-cache-miss", "page-cache-writeback", "page-cache-invalidate"},
			nil},
	} {
		t.Run(tc.regime.String(), func(t *testing.T) {
			plainCycles, _, err := tracedFileRun(tc.regime, false)
			if err != nil {
				t.Fatal(err)
			}
			refCycles, ref, err := tracedFileRun(tc.regime, true)
			if err != nil {
				t.Fatal(err)
			}
			if plainCycles != refCycles {
				t.Errorf("untraced %d cycles, traced %d — tracing perturbed file I/O timing",
					plainCycles, refCycles)
			}
			refText := ref.Text()
			for _, name := range tc.want {
				if !strings.Contains(refText, name) {
					t.Errorf("trace is missing %q events", name)
				}
			}
			for _, name := range tc.absent {
				if strings.Contains(refText, name) {
					t.Errorf("trace contains %q events, impossible in the %v regime", name, tc.regime)
				}
			}

			poolTraces(t, 2, refCycles, refText, func() (sim.Cycles, *trace.Buffer, error) { return tracedFileRun(tc.regime, true) })
		})
	}
}
