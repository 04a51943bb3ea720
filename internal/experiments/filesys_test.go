package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestFilesysRegistry: the shared-file experiment is reachable through
// Find and Extra but must stay out of All(), whose full-scale output is
// pinned byte-for-byte by experiments_full.txt.
func TestFilesysRegistry(t *testing.T) {
	if _, ok := Find("filesys"); !ok {
		t.Fatal("Find does not know the filesys experiment")
	}
	for _, s := range All() {
		if s.ID == "filesys" {
			t.Error("filesys is in All(); that changes the pinned full-run output")
		}
	}
	found := false
	for _, s := range Extra() {
		if s.ID == "filesys" {
			found = true
		}
	}
	if !found {
		t.Error("filesys missing from Extra()")
	}
}

// TestFilesysDeterminism: the regime sweep (whose 4-core cells run eight
// tasks over both nodes' strictly scheduled CPUs) must render
// byte-identically when run directly, through the sequential RunAndReport
// path, and under the parallel pool — and reproduce its shape at quick
// scale.
func TestFilesysDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, ok := Find("filesys")
	if !ok {
		t.Fatal("filesys spec not found")
	}

	direct, err := Filesys(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var seq bytes.Buffer
	if _, _, err := RunAndReport(&seq, spec, Quick); err != nil {
		t.Fatal(err)
	}
	pooled := RunPool(context.Background(), []Spec{spec, spec}, Quick, PoolOptions{Parallelism: 2})
	for i, o := range pooled {
		if o.Err != nil {
			t.Fatalf("pooled run %d: %v", i, o.Err)
		}
	}

	if a, b := direct.Render(), pooled[0].Result.Render(); a != b {
		t.Errorf("direct and pooled renderings differ:\n--- direct\n%s\n--- pooled\n%s", a, b)
	}
	if a, b := pooled[0].Result.Render(), pooled[1].Result.Render(); a != b {
		t.Errorf("two concurrent pooled runs render differently:\n--- first\n%s\n--- second\n%s", a, b)
	}
	var viaPool bytes.Buffer
	if _, err := Report(&viaPool, pooled[:1]); err != nil {
		t.Fatal(err)
	}
	if seq.String() != viaPool.String() {
		t.Errorf("sequential report differs from pooled report:\n--- seq\n%s\n--- pool\n%s",
			seq.String(), viaPool.String())
	}

	if shape := direct.ShapeErrors(); len(shape) != 0 {
		t.Errorf("shape deviations at quick scale: %v", shape)
	}
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
