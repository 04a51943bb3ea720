package cache

// Differential test for the instruction-fetch hit run: IfetchHits must leave
// the hierarchy — every way's tag and valid/dirty bits, every set's LRU
// order, every counter — exactly where the same fetches pushed one by one
// through Access(Ifetch) leave it, whatever else happens between runs.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// fetchRunConfig is a deliberately tiny two-core geometry: an 8-set 2-way
// L1I that a 16-line window exactly fills, and a 64-set L3 that a handful
// of 4 KiB-strided reads thrash, so window lines are evicted, back-
// invalidated and refilled constantly.
func fetchRunConfig(model mem.Model, l3 int) Config {
	node := func(lat Latencies) NodeConfig {
		return NodeConfig{
			Cores: 2,
			L1I:   LevelConfig{Size: 1 << 10, Ways: 2},
			L1D:   LevelConfig{Size: 1 << 10, Ways: 2},
			L2:    LevelConfig{Size: 4 << 10, Ways: 4},
			L3:    LevelConfig{Size: l3, Ways: 4},
			Lat:   lat,
		}
	}
	cfg := DefaultConfig(model)
	cfg.Nodes = [2]NodeConfig{node(XeonGoldLatencies()), node(ThunderX2Latencies())}
	return cfg
}

// l3Stride aliases every level of fetchRunConfig: 4 KiB is a multiple of
// the L1 (8), L2 (16) and L3 (64) set counts in lines.
const l3Stride = 4 << 10

// fetchStream is a code window being fetched, and its position.
type fetchStream struct {
	base  mem.PhysAddr
	lines int
	pos   int
}

func newFetchStream(base mem.PhysAddr, lines int) *fetchStream {
	return &fetchStream{base: base, lines: lines}
}

func (s *fetchStream) step(k int) { s.pos = (s.pos + k) % s.lines }

func (s *fetchStream) addr() mem.PhysAddr { return s.base + mem.PhysAddr(s.pos)*mem.LineSize }

// fetchEach pushes k fetches through Access, the reference.
func (s *fetchStream) fetchEach(h *Hierarchy, node mem.NodeID, core, k int) sim.Cycles {
	var total sim.Cycles
	for ; k > 0; k-- {
		total += h.Access(node, core, Ifetch, s.addr(), mem.LineSize)
		s.step(1)
	}
	return total
}

// fetchRuns charges the same k fetches as hit runs that wrap at the
// window's end, as Compute's do, with Access for each fetch a run stops at.
func (s *fetchStream) fetchRuns(h *Hierarchy, node mem.NodeID, core, k int) sim.Cycles {
	l1 := h.Config().Nodes[node].Lat.L1
	var total sim.Cycles
	for k > 0 {
		if n := h.IfetchHits(node, core, s.base, s.lines, s.pos, int64(k)); n > 0 {
			total += sim.Cycles(n) * l1
			s.step(n)
			k -= n
			continue
		}
		total += h.Access(node, core, Ifetch, s.addr(), mem.LineSize)
		s.step(1)
		k--
	}
	return total
}

// fetchRunSide is one of the two hierarchies under comparison.
type fetchRunSide struct {
	h       *Hierarchy
	streams []*fetchStream
	fetch   func(s *fetchStream, h *Hierarchy, node mem.NodeID, core, k int) sim.Cycles
}

func newFetchRunSide(cfg Config, model mem.Model, runs bool) *fetchRunSide {
	layout := mem.DefaultLayout(model)
	side := &fetchRunSide{
		h: NewHierarchy(cfg, &layout),
		streams: []*fetchStream{
			newFetchStream(0x1000, 16),
			newFetchStream(0x1000, 16),     // a second task in the same code
			newFetchStream(0x1000+1024, 5), // aliases the first window's L1I sets
			newFetchStream(0, 3),           // line 0 is what an invalidated way's zeroed tag names
		},
		fetch: (*fetchStream).fetchEach,
	}
	if runs {
		side.fetch = (*fetchStream).fetchRuns
	}
	return side
}

// fetchRunOp is one scripted step; apply returns the cycles it charged.
type fetchRunOp struct {
	kind   int // 0 fetch, 1 data access, 2 thrash, 3 flush
	stream int
	node   mem.NodeID
	core   int
	k      int
	write  bool
	addr   mem.PhysAddr
}

func (s *fetchRunSide) apply(op fetchRunOp) sim.Cycles {
	switch op.kind {
	case 0:
		return s.fetch(s.streams[op.stream], s.h, op.node, op.core, op.k)
	case 1:
		kind := Read
		if op.write {
			kind = Write
		}
		return s.h.Access(op.node, op.core, kind, op.addr, 8)
	case 2:
		var total sim.Cycles
		for j := 1; j <= op.k; j++ {
			total += s.h.Access(op.node, op.core, Read, op.addr+mem.PhysAddr(j)*l3Stride, 8)
		}
		return total
	default:
		s.h.Flush()
		return 0
	}
}

// fetchRunScript draws the seeded script: fetch bursts on four streams
// that mostly stay on their (node, core) but sometimes move to another
// core's or node's L1I, interleaved with data traffic and stores into the
// window lines from either node, L3-thrashing strides over the window's
// sets, and the occasional Flush.
func fetchRunScript(rng *rand.Rand, steps int) []fetchRunOp {
	type place struct {
		node mem.NodeID
		core int
	}
	home := []place{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	windowLine := func() mem.PhysAddr { return 0x1000 + mem.PhysAddr(rng.Intn(21))*mem.LineSize }
	ops := make([]fetchRunOp, 0, steps)
	for len(ops) < steps {
		op := fetchRunOp{node: mem.NodeID(rng.Intn(2)), core: rng.Intn(2)}
		switch r := rng.Intn(100); {
		case r < 45:
			op.stream = rng.Intn(len(home))
			if rng.Intn(5) == 0 {
				home[op.stream] = place{op.node, op.core}
			}
			op.node, op.core = home[op.stream].node, home[op.stream].core
			op.k = 1 + rng.Intn(40)
		case r < 75:
			op.kind, op.write, op.addr = 1, rng.Intn(2) == 0, windowLine()
			if rng.Intn(3) == 0 {
				op.addr += mem.PhysAddr(1+rng.Intn(3)) * l3Stride
			}
		case r < 99:
			op.kind, op.addr, op.k = 2, windowLine(), 3+rng.Intn(6)
		default:
			op.kind = 3
		}
		ops = append(ops, op)
	}
	return ops
}

// levels lists every cache level of the machine in a fixed order.
func (h *Hierarchy) levels() []*level {
	var out []*level
	for _, nc := range h.nodes {
		for c := range nc.l2 {
			out = append(out, nc.l1i[c], nc.l1d[c], nc.l2[c])
		}
		out = append(out, nc.l3)
	}
	return append(out, h.sharedL3)
}

// checkSameLevels fails t unless every level of got has ref's tag and
// valid/dirty bits in every way and ranks every set's valid ways in ref's
// recency order.
func checkSameLevels(t *testing.T, ref, got *Hierarchy) {
	t.Helper()
	gotLevels := got.levels()
	for li, want := range ref.levels() {
		have := gotLevels[li]
		if want == nil {
			continue
		}
		for wi := range want.ways {
			if have.ways[wi] != want.ways[wi] {
				t.Fatalf("level %d way %d: %#x, want %#x", li, wi, have.ways[wi], want.ways[wi])
			}
		}
		for s := range want.order {
			if h, w := have.recency(s), want.recency(s); !slices.Equal(h, w) {
				t.Fatalf("level %d set %d: valid ways in recency order %v, want %v", li, s, h, w)
			}
		}
	}
}

func TestIfetchHitsMatchesAccess(t *testing.T) {
	shapes := []struct {
		name  string
		model mem.Model
		l3    int
	}{
		{"privateL3", mem.Separated, 16 << 10},
		{"cxlPool", mem.Shared, 16 << 10},
		{"sharedL3", mem.FullyShared, 16 << 10},
		{"noL3", mem.Separated, 0},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				cfg := fetchRunConfig(sh.model, sh.l3)
				ref := newFetchRunSide(cfg, sh.model, false)
				run := newFetchRunSide(cfg, sh.model, true)
				for i, op := range fetchRunScript(rand.New(rand.NewSource(seed)), 4000) {
					if want, got := ref.apply(op), run.apply(op); got != want {
						t.Fatalf("step %d %+v: hit-run side charged %d cycles, per-fetch %d", i, op, got, want)
					}
					for n := mem.NodeID(0); n < 2; n++ {
						if want, got := ref.h.Stats(n), run.h.Stats(n); got != want {
							t.Fatalf("step %d %+v: node %d stats\n got %+v\nwant %+v", i, op, n, got, want)
						}
						for c := 0; c < 2; c++ {
							if want, got := ref.h.CoreStats(n, c), run.h.CoreStats(n, c); got != want {
								t.Fatalf("step %d %+v: node %d core %d stats\n got %+v\nwant %+v", i, op, n, c, got, want)
							}
						}
					}
					if err := run.h.CheckMESI(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				checkSameLevels(t, ref.h, run.h)
				// The script must actually exercise runs: most fetches hit.
				st0, st1 := run.h.Stats(0), run.h.Stats(1)
				if hits, all := st0.L1IHits+st1.L1IHits, st0.L1IAccesses+st1.L1IAccesses; hits*2 < all {
					t.Errorf("only %d of %d fetches hit: the script no longer exercises hit runs", hits, all)
				}
			})
		}
	}
	t.Run("cyclic", testIfetchHitsCyclic)
}

// testIfetchHitsCyclic: one run over windows of 1 to 129 lines, from
// several starts, of lines−1 to 10·lines fetches, with the window resident
// in scrambled LRU order or with the line just after or just before start
// snooped out, leaves the hierarchy where the same fetches through Access
// do, and stops at the missing line, in the wrapped part too.
func testIfetchHitsCyclic(t *testing.T) {
	const base = 0x10000
	for _, lines := range []int{1, 63, 64, 65, 128, 129} {
		for _, limit := range []int{lines - 1, lines, lines + 1, 2 * lines, 10 * lines} {
			for _, start := range slices.Compact([]int{0, lines / 2, lines - 1}) {
				for _, gone := range []int{-1, (start + 1) % lines, (start + lines - 1) % lines} {
					name := fmt.Sprintf("lines=%d/limit=%d/start=%d/gone=%d", lines, limit, start, gone)
					warm := func(h *Hierarchy) {
						// The window, lines aliasing its L1I sets, then the
						// window again in a scrambled order.
						rng := rand.New(rand.NewSource(int64(lines)))
						for i := 0; i < 2*lines; i++ {
							h.Access(0, 0, Ifetch, base+mem.PhysAddr(rng.Intn(lines))*mem.LineSize+l3Stride, 4)
						}
						for _, i := range rng.Perm(lines) {
							h.Access(0, 0, Ifetch, base+mem.PhysAddr(i)*mem.LineSize, 4)
						}
						if gone >= 0 {
							h.Access(1, 0, Write, base+mem.PhysAddr(gone)*mem.LineSize, 8)
						}
					}
					ref, run := newTestHierarchy(mem.Separated), newTestHierarchy(mem.Separated)
					warm(ref)
					warm(run)
					want := limit
					if gone >= 0 {
						want = min(limit, (gone-start+lines)%lines)
					}
					n := run.IfetchHits(0, 0, base, lines, start, int64(limit))
					if n != want {
						t.Fatalf("%s: run of %d fetches, want %d", name, n, want)
					}
					(&fetchStream{base: base, lines: lines, pos: start}).fetchEach(ref, 0, 0, n)
					if got, want := run.Stats(0), ref.Stats(0); got != want {
						t.Fatalf("%s: stats\n got %+v\nwant %+v", name, got, want)
					}
					if got, want := run.CoreStats(0, 0), ref.CoreStats(0, 0); got != want {
						t.Fatalf("%s: core stats\n got %+v\nwant %+v", name, got, want)
					}
					checkSameLevels(t, ref, run)
				}
			}
		}
	}
}

// TestIfetchHitsBypassedUnderTap: a Tap must see every access, so the run
// charges nothing while one is installed.
func TestIfetchHitsBypassedUnderTap(t *testing.T) {
	h := newTestHierarchy(mem.Separated)
	h.Access(mem.NodeX86, 0, Ifetch, 0x1000, mem.LineSize)
	if n := h.IfetchHits(mem.NodeX86, 0, 0x1000, 4, 0, 4); n != 1 {
		t.Fatalf("resident line: run of %d, want 1 (stops at the first miss)", n)
	}
	h.Tap = func(mem.NodeID, int, Kind, mem.PhysAddr, int) {}
	before := h.Stats(mem.NodeX86)
	if n := h.IfetchHits(mem.NodeX86, 0, 0x1000, 4, 0, 4); n != 0 {
		t.Errorf("run of %d under a Tap, want 0", n)
	}
	if after := h.Stats(mem.NodeX86); after != before {
		t.Errorf("stats moved under a Tap: %+v -> %+v", before, after)
	}
}
