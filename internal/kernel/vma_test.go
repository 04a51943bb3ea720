package kernel

import (
	"testing"

	"repro/internal/pgtable"
	"repro/internal/sim"
)

func mkVMA(start, end pgtable.VirtAddr) *VMA {
	return &VMA{Start: start, End: end, Flags: VMARead | VMAWrite, Name: "t"}
}

func TestVMAInsertFind(t *testing.T) {
	var tr VMAList
	if err := tr.Insert(mkVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(mkVMA(0x5000, 0x6000)); err != nil {
		t.Fatal(err)
	}
	if v := tr.Find(0x1000); v == nil || v.Start != 0x1000 {
		t.Error("Find at start failed")
	}
	if v := tr.Find(0x2FFF); v == nil {
		t.Error("Find inside failed")
	}
	if v := tr.Find(0x3000); v != nil {
		t.Error("Find at end (exclusive) returned a vma")
	}
	if v := tr.Find(0x4000); v != nil {
		t.Error("Find in hole returned a vma")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestVMAOverlapRejected(t *testing.T) {
	var tr VMAList
	tr.Insert(mkVMA(0x1000, 0x3000))
	for _, bad := range [][2]pgtable.VirtAddr{
		{0x0, 0x1001}, {0x2000, 0x2800}, {0x2FFF, 0x5000}, {0x1000, 0x3000},
	} {
		if err := tr.Insert(mkVMA(bad[0], bad[1])); err == nil {
			t.Errorf("overlap [%#x,%#x) accepted", bad[0], bad[1])
		}
	}
	if err := tr.Insert(mkVMA(0x3000, 0x4000)); err != nil {
		t.Errorf("adjacent vma rejected: %v", err)
	}
	if err := tr.Insert(mkVMA(0x500, 0x500)); err == nil {
		t.Error("empty vma accepted")
	}
}

func TestVMARemove(t *testing.T) {
	var tr VMAList
	tr.Insert(mkVMA(0x1000, 0x2000))
	tr.Insert(mkVMA(0x3000, 0x4000))
	if v := tr.Remove(0x1000); v == nil {
		t.Fatal("Remove failed")
	}
	if tr.Find(0x1800) != nil {
		t.Error("removed vma still findable")
	}
	if tr.Remove(0x1000) != nil {
		t.Error("double remove succeeded")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestVMATreeAgainstNaiveModel(t *testing.T) {
	// Property: under random inserts/removes/lookups, the list agrees with
	// a naive interval model and stays sorted.
	rng := sim.NewRNG(42)
	var tr VMAList
	model := map[pgtable.VirtAddr]*VMA{}

	for op := 0; op < 5000; op++ {
		start := pgtable.VirtAddr(rng.Intn(2000)) * 0x1000
		end := start + pgtable.VirtAddr(rng.Intn(8)+1)*0x1000
		switch rng.Intn(3) {
		case 0: // insert
			overlaps := false
			for _, v := range model {
				if start < v.End && v.Start < end {
					overlaps = true
					break
				}
			}
			err := tr.Insert(mkVMA(start, end))
			if overlaps && err == nil {
				t.Fatalf("op %d: overlap accepted [%#x,%#x)", op, start, end)
			}
			if !overlaps {
				if err != nil {
					t.Fatalf("op %d: valid insert rejected: %v", op, err)
				}
				model[start] = mkVMA(start, end)
			}
		case 1: // remove
			got := tr.Remove(start)
			_, inModel := model[start]
			if (got != nil) != inModel {
				t.Fatalf("op %d: Remove(%#x) = %v, model has %v", op, start, got, inModel)
			}
			delete(model, start)
		case 2: // find
			got := tr.Find(start)
			var want *VMA
			for _, v := range model {
				if v.Contains(start) {
					want = v
					break
				}
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d: Find(%#x) = %v, model %v", op, start, got, want)
			}
			if got != nil && got.Start != want.Start {
				t.Fatalf("op %d: Find mismatch %v vs %v", op, got, want)
			}
		}
		if op%100 == 0 {
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len %d != model %d", op, tr.Len(), len(model))
			}
		}
	}

	// The list holds exactly the model's areas, in address order.
	if tr.Len() != len(model) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(model))
	}
	for i, v := range tr.areas {
		if model[v.Start] == nil {
			t.Fatalf("area %v not in model", v)
		}
		if i > 0 && tr.areas[i-1].End > v.Start {
			t.Fatalf("areas %v and %v out of order", tr.areas[i-1], v)
		}
	}

	// Mmap's cursor only grows, so every mapping appends; each area must
	// be found at its first and its last byte.
	p := NewProcess(1, 0)
	var bases []pgtable.VirtAddr
	for i := 0; i < 40; i++ {
		var base pgtable.VirtAddr
		var err error
		if i%3 == 0 {
			base, err = p.MmapAligned(uint64(i+1)*0x1000, 2<<20, VMARead|VMAWrite, "aligned")
		} else {
			base, err = p.Mmap(uint64(i)*0x800+1, VMARead, "anon")
		}
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	if p.VMAs.Len() != len(bases) {
		t.Fatalf("Len %d, want %d", p.VMAs.Len(), len(bases))
	}
	for _, base := range bases {
		v := p.VMAs.Find(base)
		if v == nil || v.Start != base {
			t.Fatalf("Find(%#x) = %v", base, v)
		}
		if last := p.VMAs.Find(v.End - 1); last != v {
			t.Fatalf("Find(%#x) = %v, want %v", v.End-1, last, v)
		}
	}
}
