package mem

// Differential and allocation tests for the two-level radix frame table
// behind Physical (physical.go). The frame table is pure data movement —
// it carries no timing — but its contents feed every correctness check in
// the repo, so the radix walk, the last-frame cache and the far-address
// spill map are differentially tested against a byte-granular shadow model
// over randomized access sequences.

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestPhysicalMatchesShadowModel performs randomized interleaved writes and
// reads through every Physical API (Write, WriteUint, Write64, Write32,
// ReadInto, ReadUint, Read64, Read32, CopyPage, ZeroPage) at addresses
// spanning page boundaries, region boundaries, the radix's leaf boundaries
// and the far-spill territory beyond the radix root, comparing every byte
// against a map-backed shadow.
func TestPhysicalMatchesShadowModel(t *testing.T) {
	const steps = 20000
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed * 31337)
			p := NewPhysical(DefaultLayout(Separated))
			shadow := make(map[PhysAddr]byte)

			sget := func(a PhysAddr) byte { return shadow[a] }
			sput := func(a PhysAddr, b byte) {
				if b == 0 {
					delete(shadow, a)
				} else {
					shadow[a] = b
				}
			}

			// Address pool: within-region, leaf-boundary straddles, page
			// straddles, and far addresses beyond the radix span (≥ 4 TiB).
			bases := []PhysAddr{
				0x0, 0x1000, PageSize - 3, // page straddle
				1536 << 20,                       // arm-low start
				(4 << 30) - 5,                    // region boundary straddle
				6 << 30,                          // arm-high
				(frameLeafSize << PageShift) - 2, // radix leaf boundary
				PhysAddr(farRootLimit) << (PageShift + frameLeafBits),       // first far frame
				(PhysAddr(farRootLimit) << (PageShift + frameLeafBits)) + 7, // far, offset
			}

			for step := 0; step < steps; step++ {
				a := bases[rng.Intn(len(bases))] + PhysAddr(rng.Intn(64))
				n := 1 + rng.Intn(12)
				switch rng.Intn(8) {
				case 0:
					v := rng.Uint64()
					p.WriteUint(a, n, v)
					for i := 0; i < n; i++ {
						var b byte
						if i < 8 {
							b = byte(v >> (8 * uint(i)))
						}
						sput(a+PhysAddr(i), b)
					}
				case 1:
					v := rng.Uint64()
					p.Write64(a, v)
					for i := 0; i < 8; i++ {
						sput(a+PhysAddr(i), byte(v>>(8*uint(i))))
					}
				case 2:
					v := uint32(rng.Uint64())
					p.Write32(a, v)
					for i := 0; i < 4; i++ {
						sput(a+PhysAddr(i), byte(v>>(8*uint(i))))
					}
				case 3:
					buf := make([]byte, n)
					for i := range buf {
						buf[i] = byte(rng.Intn(256))
					}
					p.Write(a, buf)
					for i := range buf {
						sput(a+PhysAddr(i), buf[i])
					}
				case 4:
					got := p.ReadUint(a, n)
					var want uint64
					m := n
					if m > 8 {
						m = 8
					}
					for i := 0; i < m; i++ {
						want |= uint64(sget(a+PhysAddr(i))) << (8 * uint(i))
					}
					if got != want {
						t.Fatalf("step %d: ReadUint(%#x, %d) = %#x, want %#x", step, a, n, got, want)
					}
				case 5:
					got := p.Read64(a)
					var want uint64
					for i := 0; i < 8; i++ {
						want |= uint64(sget(a+PhysAddr(i))) << (8 * uint(i))
					}
					if got != want {
						t.Fatalf("step %d: Read64(%#x) = %#x, want %#x", step, a, got, want)
					}
				case 6:
					buf := make([]byte, n)
					p.ReadInto(a, buf)
					for i := range buf {
						if buf[i] != sget(a+PhysAddr(i)) {
							t.Fatalf("step %d: ReadInto(%#x)[%d] = %#x, want %#x",
								step, a, i, buf[i], sget(a+PhysAddr(i)))
						}
					}
				case 7:
					if got, want := uint64(p.Read32(a)), uint64(0); true {
						for i := 0; i < 4; i++ {
							want |= uint64(sget(a+PhysAddr(i))) << (8 * uint(i))
						}
						if got != want {
							t.Fatalf("step %d: Read32(%#x) = %#x, want %#x", step, a, got, want)
						}
					}
				}
			}

			// Page-granular operations against the shadow.
			src, dst := PhysAddr(0x4000), PhysAddr(2<<30)
			p.WriteUint(src+123, 8, 0xDEADBEEFCAFEF00D)
			p.CopyPage(dst, src)
			for i := 0; i < 16; i++ {
				a := src + 120 + PhysAddr(i)
				if p.ReadUint(dst+120+PhysAddr(i), 1) != p.ReadUint(a, 1) {
					t.Fatal("CopyPage: byte mismatch")
				}
			}
			p.ZeroPage(dst)
			if p.Read64(dst+123) != 0 {
				t.Fatal("ZeroPage left data")
			}
		})
	}
}

// TestTouchedFramesCountsRadixAndFar checks frame accounting across both
// the radix and the far spill map.
func TestTouchedFramesCountsRadixAndFar(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	if p.TouchedFrames() != 0 {
		t.Fatalf("fresh Physical has %d touched frames", p.TouchedFrames())
	}
	p.Write64(0x0, 1)      // frame 0
	p.Write64(0x10, 2)     // same frame
	p.Write64(PageSize, 3) // frame 1
	p.Write64(6<<30, 4)    // distant radix frame
	far := PhysAddr(farRootLimit) << (PageShift + frameLeafBits)
	p.Write64(far, 5)   // far map frame
	p.Write64(far+8, 6) // same far frame
	if got := p.TouchedFrames(); got != 4 {
		t.Fatalf("TouchedFrames = %d, want 4", got)
	}
	if p.Read64(far) != 5 || p.Read64(far+8) != 6 {
		t.Fatal("far frame data lost")
	}
}

// TestPhysicalSteadyStateZeroAllocs pins the byte-movement fast path to
// zero allocations once frames are materialized.
func TestPhysicalSteadyStateZeroAllocs(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	p.Write64(0x1000, 1)
	p.Write64(0x2000, 1)
	body := func() {
		p.WriteUint(0x1008, 8, 0xAA55AA55)
		_ = p.ReadUint(0x1008, 8)
		_ = p.Read64(0x2000)
		p.Write64(0x2000, 7)
	}
	allocs := testing.AllocsPerRun(500, body)
	if allocs != 0 {
		t.Errorf("steady-state read/write allocates %.2f objects/op, want 0", allocs)
	}
}

// TestPhysicalZeroFrames pins the never-written-frame rules: zeroing,
// every read path, SamePage and copying from an absent frame neither
// materialize a frame nor read anything but zeros; the first write does
// materialize it; and zeroing a written frame clears it in place.
func TestPhysicalZeroFrames(t *testing.T) {
	p := NewPhysical(DefaultLayout(Separated))
	const a, b, c = PhysAddr(0x10000), PhysAddr(0x20000), PhysAddr(0x30000)
	far := PhysAddr(farRootLimit) << (PageShift + frameLeafBits)
	buf := make([]byte, 2*PageSize)
	for _, x := range []PhysAddr{a, far} {
		p.ZeroPage(x)
		p.ReadInto(x-PageSize/2, buf)
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("ReadInto(%#x)[%d] = %#x on never-written memory", x-PageSize/2, i, v)
			}
		}
		if p.ReadUint(x+3, 8) != 0 || p.ReadUint(x-4, 8) != 0 || p.Read64(x+8) != 0 ||
			p.Read64(x-4) != 0 || p.Read32(x+16) != 0 {
			t.Fatalf("a word read of never-written %#x is not zero", x)
		}
		if !p.SamePage(x, b) {
			t.Fatalf("SamePage(%#x, %#x) = false for two never-written frames", x, b)
		}
		p.CopyPage(c, x)
	}
	if got := p.TouchedFrames(); got != 0 {
		t.Fatalf("zeroing, reading and copying absent frames materialized %d frames", got)
	}
	if p.Read64(c) != 0 {
		t.Fatal("CopyPage from an absent frame left a non-zero destination")
	}
	if p.Frame(a) != nil || p.Frame(far) != nil || p.TouchedFrames() != 0 {
		t.Fatal("Frame of a never-written frame is not nil, or materialized it")
	}

	p.Write64(a+8, 0xFEED)
	if got := p.TouchedFrames(); got != 1 || p.Read64(a+8) != 0xFEED {
		t.Fatalf("write after ZeroPage: TouchedFrames = %d, value %#x", got, p.Read64(a+8))
	}
	fa := p.Frame(a + 100)
	if fa == nil || fa[8] != 0xED {
		t.Fatal("Frame of a written frame does not hold its data")
	}
	if p.Read64(b+8) != 0 {
		t.Fatal("a write landed in the shared zero page: a never-written frame reads it")
	}
	p.Write64(c+16, 0xBEEF)
	p.CopyPage(c, b) // absent source: the written destination is cleared
	if p.Read64(c+16) != 0 || !p.SamePage(c, b) {
		t.Fatal("CopyPage from an absent frame did not clear the written destination")
	}
	p.ZeroPage(a)
	if p.Read64(a+8) != 0 || !p.SamePage(a, b) {
		t.Fatal("ZeroPage left a written frame's data")
	}
	if p.Frame(a) != fa || fa[8] != 0 {
		t.Fatal("ZeroPage did not clear a written frame in place: its Frame bytes moved or kept their data")
	}
	if got := p.TouchedFrames(); got != 2 {
		t.Fatalf("TouchedFrames = %d after writing two frames, want 2", got)
	}
}

// BenchmarkPhysicalZeroPage measures a buddy-style recycle of a page: a
// word written into a frame, then the frame zeroed in place, then a copy
// into it from a never-written frame. The contract is 0 allocs/op.
func BenchmarkPhysicalZeroPage(b *testing.B) {
	p := NewPhysical(DefaultLayout(Separated))
	const dst, absent = PhysAddr(0x4000), PhysAddr(0x8000)
	p.Write64(dst, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Write64(dst, uint64(i))
		p.ZeroPage(dst)
		p.CopyPage(dst, absent)
	}
}

// BenchmarkPhysicalReadWrite measures the radix + last-frame-cache data
// path: an 8-byte write and read-back in a resident frame. The acceptance
// contract is 0 allocs/op.
func BenchmarkPhysicalReadWrite(b *testing.B) {
	p := NewPhysical(DefaultLayout(Separated))
	p.Write64(0x1000, 1)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.WriteUint(0x1000+PhysAddr(i&2048), 8, uint64(i))
		sink += p.ReadUint(0x1000+PhysAddr(i&2048), 8)
	}
	_ = sink
}

// BenchmarkPhysicalReadWriteStrided is the cache-unfriendly variant: every
// access lands in a different frame, defeating the last-frame cache and
// exercising the bare radix walk.
func BenchmarkPhysicalReadWriteStrided(b *testing.B) {
	p := NewPhysical(DefaultLayout(Separated))
	const frames = 256
	for i := 0; i < frames; i++ {
		p.Write64(PhysAddr(i)*PageSize, 1)
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := PhysAddr(i%frames) * PageSize
		p.WriteUint(a, 8, uint64(i))
		sink += p.ReadUint(a, 8)
	}
	_ = sink
}
