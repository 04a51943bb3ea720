package experiments

import (
	"strings"
	"testing"
)

func TestFilesysRegistry(t *testing.T) { extraOnly(t, "filesys") }

// TestFilesysDeterminism: the regime sweep (whose 4-core cells run eight
// tasks over both nodes' strictly scheduled CPUs) is deterministic.
func TestFilesysDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	deterministic(t, "filesys")
}

// TestFilesysMetrics: the -json export must carry the page-cache counters
// (hits/misses/writebacks/invalidations per node) and messaging cycles
// for every (regime, cores) cell.
func TestFilesysMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Filesys(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(CycleMetrics).Metrics()
	for _, key := range []string{
		"cycles/fused/1cores", "cycles/popcorn/4cores",
		"msg_cycles/fused/2cores", "msg_cycles/popcorn/2cores",
		"hits/fused/1cores/x86", "misses/fused/4cores/arm",
		"writebacks/popcorn/1cores/arm", "invalidations/popcorn/4cores/x86",
		"meta_rpcs/popcorn/1cores", "messages/fused/2cores",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	for k, v := range m {
		if strings.HasPrefix(k, "cycles/") && v <= 0 {
			t.Errorf("%s = %d, want positive", k, v)
		}
		if strings.HasPrefix(k, "msg_cycles/fused/") && v != 0 {
			t.Errorf("%s = %d, want 0 (fused never messages)", k, v)
		}
		if strings.HasPrefix(k, "msg_cycles/popcorn/") && v == 0 {
			t.Errorf("%s = 0, want positive (DSM must message)", k)
		}
	}
}
