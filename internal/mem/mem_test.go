package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDefaultLayoutTotals(t *testing.T) {
	for _, m := range []Model{Separated, Shared, FullyShared} {
		l := DefaultLayout(m)
		want := uint64(7 << 30) // 1.5+1.5+4 GB of usable RAM in all models
		if got := l.TotalSize(); got != want {
			t.Errorf("%v: TotalSize = %d, want %d", m, got, want)
		}
	}
}

func TestLayoutRegionAt(t *testing.T) {
	l := DefaultLayout(Separated)
	cases := []struct {
		addr PhysAddr
		want string
	}{
		{0x0, "x86-low"},
		{PhysAddr(1536<<20) - 1, "x86-low"},
		{PhysAddr(1536 << 20), "arm-low"},
		{PhysAddr(4 << 30), "x86-high"},
		{PhysAddr(6 << 30), "arm-high"},
		{PhysAddr(8<<30) - 1, "arm-high"},
	}
	for _, c := range cases {
		r := l.RegionAt(c.addr)
		if r == nil || r.Name != c.want {
			t.Errorf("RegionAt(%#x) = %v, want %s", c.addr, r, c.want)
		}
	}
	if r := l.RegionAt(PhysAddr(3 << 30)); r != nil {
		t.Errorf("RegionAt(3GB) = %v, want nil (hole in Separated map)", r)
	}
	if r := l.RegionAt(PhysAddr(16 << 30)); r != nil {
		t.Errorf("RegionAt(16GB) = %v, want nil", r)
	}
}

func TestClassifySeparated(t *testing.T) {
	l := DefaultLayout(Separated)
	if got := l.Classify(NodeX86, 0x1000); got != Local {
		t.Errorf("x86 access to x86-low = %v, want local", got)
	}
	if got := l.Classify(NodeArm, 0x1000); got != Remote {
		t.Errorf("arm access to x86-low = %v, want remote", got)
	}
	if got := l.Classify(NodeArm, PhysAddr(6<<30)); got != Local {
		t.Errorf("arm access to arm-high = %v, want local", got)
	}
	if got := l.Classify(NodeX86, PhysAddr(6<<30)); got != Remote {
		t.Errorf("x86 access to arm-high = %v, want remote", got)
	}
}

func TestClassifyShared(t *testing.T) {
	l := DefaultLayout(Shared)
	pool := PhysAddr(5 << 30)
	if got := l.Classify(NodeX86, pool); got != Remote {
		t.Errorf("x86 access to CXL pool = %v, want remote", got)
	}
	if got := l.Classify(NodeArm, pool); got != Remote {
		t.Errorf("arm access to CXL pool = %v, want remote", got)
	}
	r := l.RegionAt(pool)
	if r == nil || r.Owner != NodeNone {
		t.Errorf("pool region owner = %v, want NodeNone", r)
	}
}

func TestClassifyFullyShared(t *testing.T) {
	l := DefaultLayout(FullyShared)
	for _, a := range []PhysAddr{0, PhysAddr(2 << 30), PhysAddr(7 << 30)} {
		if got := l.Classify(NodeX86, a); got != Local {
			t.Errorf("FullyShared x86 %#x = %v, want local", a, got)
		}
		if got := l.Classify(NodeArm, a); got != Local {
			t.Errorf("FullyShared arm %#x = %v, want local", a, got)
		}
	}
}

func TestOwnedAndSharedRegions(t *testing.T) {
	l := DefaultLayout(Shared)
	x86 := l.OwnedRegions(NodeX86)
	if len(x86) != 1 || x86[0].Name != "x86-low" {
		t.Errorf("x86 owned = %v", x86)
	}
	pool := l.SharedRegions()
	if len(pool) != 1 || pool[0].Size != 4<<30 {
		t.Errorf("shared regions = %v", pool)
	}

	sep := DefaultLayout(Separated)
	arm := sep.OwnedRegions(NodeArm)
	if len(arm) != 2 || arm[0].Start >= arm[1].Start {
		t.Errorf("arm owned regions unsorted or wrong: %v", arm)
	}
}

// readBytes returns a fresh copy of the n bytes at a.
func readBytes(p *Physical, a PhysAddr, n int) []byte {
	out := make([]byte, n)
	p.ReadInto(a, out)
	return out
}

func TestPhysicalReadWrite(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	data := []byte("hello, heterogeneous world")
	p.Write(0x1234, data)
	if got := readBytes(p, 0x1234, len(data)); !bytes.Equal(got, data) {
		t.Errorf("ReadInto = %q, want %q", got, data)
	}
	// Unwritten memory reads as zero.
	if got := readBytes(p, 0x99000, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Errorf("fresh memory = %v, want zeros", got)
	}
}

func TestPhysicalCrossPageWrite(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := PhysAddr(PageSize - 100)
	p.Write(start, data)
	if got := readBytes(p, start, len(data)); !bytes.Equal(got, data) {
		t.Error("cross-page write/read mismatch")
	}
}

func TestPhysical64BitOps(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	p.Write64(0x2000, 0xDEADBEEFCAFEBABE)
	if got := p.Read64(0x2000); got != 0xDEADBEEFCAFEBABE {
		t.Errorf("Read64 = %#x", got)
	}
	// Straddling a page boundary.
	a := PhysAddr(2*PageSize - 4)
	p.Write64(a, 0x1122334455667788)
	if got := p.Read64(a); got != 0x1122334455667788 {
		t.Errorf("straddling Read64 = %#x", got)
	}
	p.Write32(0x3000, 0xA5A5A5A5)
	if got := p.Read32(0x3000); got != 0xA5A5A5A5 {
		t.Errorf("Read32 = %#x", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	p.Write64(0x4000, 10)
	if prev, ok := p.CompareAndSwap64(0x4000, 10, 20); !ok || prev != 10 {
		t.Errorf("CAS success case: prev=%d ok=%v", prev, ok)
	}
	if prev, ok := p.CompareAndSwap64(0x4000, 10, 30); ok || prev != 20 {
		t.Errorf("CAS failure case: prev=%d ok=%v", prev, ok)
	}
	if got := p.Read64(0x4000); got != 20 {
		t.Errorf("value after failed CAS = %d, want 20", got)
	}
}

func TestCopyZeroPage(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	src := PhysAddr(5 * PageSize)
	dst := PhysAddr(9 * PageSize)
	payload := make([]byte, PageSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	p.Write(src, payload)
	p.CopyPage(dst, src)
	if !p.SamePage(dst, src) {
		t.Error("CopyPage did not replicate contents")
	}
	p.ZeroPage(dst)
	if bytes.Equal(readBytes(p, dst, PageSize), payload) {
		t.Error("ZeroPage left contents")
	}
	if p.SamePage(dst, src) {
		t.Error("SamePage true after zeroing")
	}
}

func TestCopyPageAlignmentPanics(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned CopyPage must panic")
		}
	}()
	p.CopyPage(100, 0)
}

func TestCheckMapped(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	if err := p.CheckMapped(0x0, PageSize); err != nil {
		t.Errorf("mapped range rejected: %v", err)
	}
	if err := p.CheckMapped(PhysAddr(3<<30), 8); err == nil {
		t.Error("hole accepted by CheckMapped")
	}
	// Range spanning two adjacent regions is fine.
	if err := p.CheckMapped(PhysAddr(1536<<20)-64, 128); err != nil {
		t.Errorf("cross-region contiguous range rejected: %v", err)
	}
}

func TestPhysicalPropertyRoundTrip(t *testing.T) {
	p := NewPhysical(DefaultLayout(FullyShared))
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := PhysAddr(off % (1 << 28))
		p.Write(a, data)
		return bytes.Equal(readBytes(p, a, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTouchedFramesSparse(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	p.Write64(0, 1)
	p.Write64(PhysAddr(6<<30), 1)
	if got := p.TouchedFrames(); got != 2 {
		t.Errorf("TouchedFrames = %d, want 2 (sparse backing)", got)
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeX86.String() != "x86" || NodeArm.String() != "arm" || NodeNone.String() != "shared" {
		t.Error("NodeID names wrong")
	}
}

func TestModelString(t *testing.T) {
	if Separated.String() != "Separated" || Shared.String() != "Shared" || FullyShared.String() != "FullyShared" {
		t.Error("Model names wrong")
	}
}
