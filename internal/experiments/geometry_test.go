package experiments

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/hwref"
	"repro/internal/machine"
	"repro/internal/mem"
)

// TestExperimentCacheGeometries: every cache geometry an experiment builds
// — the default, the Figure 10 L2/L3 sweep, Figure 11's Quick-scale L3 and
// both hardware pairs' per-node L3s, the small pair's no-L3 Arm node
// included — passes machine.Config.Validate and builds a machine whose
// every level passes cache.LevelConfig.Validate, the check the cache model
// panics on.
func TestExperimentCacheGeometries(t *testing.T) {
	big, small := hwref.BigPair(), hwref.SmallPair()
	if small.L3Size[1] != 0 {
		t.Error("the small pair's Arm node has an L3: the no-L3 geometry is no longer covered")
	}
	for _, g := range []struct {
		name string
		cfg  machine.Config
	}{
		{"default", machine.Config{}},
		{"fig10-small", machine.Config{L2Size: figure10L2, L3Size: figure10SmallL3}},
		{"fig10-large", machine.Config{L2Size: figure10L2, L3Size: figure10LargeL3}},
		{"fig11-quick", machine.Config{L3Size: figure11QuickL3}},
		{"big-pair", machine.Config{L3PerNode: &big.L3Size}},
		{"small-pair", machine.Config{L3PerNode: &small.L3Size}},
	} {
		cfg := g.cfg
		cfg.Model, cfg.OS = mem.Separated, machine.StramashOS
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for n, nc := range m.Plat.Cfg.Cache.Nodes {
			for _, l := range []cache.LevelConfig{nc.L1I, nc.L1D, nc.L2, nc.L3} {
				if err := l.Validate(); err != nil {
					t.Errorf("%s node %d: %v", g.name, n, err)
				}
			}
		}
	}
}
