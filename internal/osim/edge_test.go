package osim

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
)

func TestMUnmapPartiallyPopulatedVMA(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	p := k.NewProcess(0)
	free0 := k.Machine.FreePages()
	v, _ := p.MMap(8 * addr.HugeSize)
	// Touch only every other huge region.
	for off := uint64(0); off < v.Size(); off += 2 * addr.HugeSize {
		if _, err := p.Touch(v.Start.Add(off), true); err != nil {
			t.Fatal(err)
		}
	}
	if v.MappedPages != 4*512 {
		t.Fatalf("mapped = %d", v.MappedPages)
	}
	p.MUnmap(v)
	if k.Machine.FreePages() != free0 {
		t.Fatal("partial munmap leaked")
	}
	// The VA range is gone: touching it segfaults.
	if _, err := p.Touch(v.Start, false); err != ErrSegfault {
		t.Fatalf("want segfault after munmap, got %v", err)
	}
}

func TestCoWChainGrandchild(t *testing.T) {
	// fork -> fork: three generations share; writes isolate exactly one.
	k := newKernel(t, 32, DefaultPolicy{})
	gp := k.NewProcess(0)
	v, _ := gp.MMap(4 * addr.PageSize)
	k.THPEnabled = false
	touchRange(t, gp, v.Start, v.Size(), addr.PageSize)
	parent := gp.Fork()
	child := parent.Fork()
	pa0, _ := gp.PT.Translate(v.Start)
	if pa, _ := child.PT.Translate(v.Start); pa != pa0 {
		t.Fatal("grandchild should share the original frame")
	}
	if _, err := child.Touch(v.Start, true); err != nil {
		t.Fatal(err)
	}
	cpa, _ := child.PT.Translate(v.Start)
	ppa, _ := parent.PT.Translate(v.Start)
	gpa, _ := gp.PT.Translate(v.Start)
	if cpa == pa0 {
		t.Fatal("grandchild write did not copy")
	}
	if ppa != pa0 || gpa != pa0 {
		t.Fatal("ancestors lost their shared frame")
	}
	child.Exit()
	parent.Exit()
	gp.Exit()
	if k.Machine.FreePages() != k.Machine.TotalPages() {
		t.Fatal("three-generation teardown leaked")
	}
}

func TestCoWOOMPropagates(t *testing.T) {
	k := newKernel(t, 1, DefaultPolicy{})
	k.THPEnabled = false
	p := k.NewProcess(0)
	// Fill most of memory.
	v, _ := p.MMap(uint64(addr.MaxOrderPages-8) * addr.PageSize)
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	child := p.Fork()
	// Writing every page in the child needs a full copy: must OOM.
	var sawErr bool
	for off := uint64(0); off < v.Size(); off += addr.PageSize {
		if _, err := child.Touch(v.Start.Add(off), true); err == ErrOOM {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("expected ErrOOM during CoW storm")
	}
}

func TestBootReservePinsZoneBases(t *testing.T) {
	k := newKernel(t, 8, DefaultPolicy{})
	free0 := k.Machine.FreePages()
	k.BootReserve(2)
	if k.Machine.FreePages() != free0-2*addr.MaxOrderPages {
		t.Fatal("boot reserve accounting wrong")
	}
	// The base blocks are not free.
	if k.Machine.Frames.IsFree(0) {
		t.Fatal("zone base should be reserved")
	}
}

func TestContigBitClearedOnUnmapAndRemap(t *testing.T) {
	k := newKernel(t, 16, CAPolicy{})
	k.THPEnabled = false
	p := k.NewProcess(0)
	v, _ := p.MMap(64 * addr.PageSize)
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	if p.PT.ContigBits == 0 {
		t.Fatal("expected contiguity bits")
	}
	p.MUnmap(v)
	if p.PT.ContigBits != 0 {
		t.Fatalf("ContigBits = %d after unmap", p.PT.ContigBits)
	}
}

func TestHugeCoWCopiesWholeRegion(t *testing.T) {
	k := newKernel(t, 32, DefaultPolicy{})
	p := k.NewProcess(0)
	v, _ := p.MMap(addr.HugeSize)
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	child := p.Fork()
	if _, err := child.Touch(v.Start.Add(addr.PageSize*7), true); err != nil {
		t.Fatal(err)
	}
	// The child's whole huge region moved to a new huge frame.
	pte, pages, ok := child.PT.Lookup(v.Start)
	if !ok || pages != 512 {
		t.Fatal("child lost its huge mapping")
	}
	ppte, _, _ := p.PT.Lookup(v.Start)
	if pte.PFN == ppte.PFN {
		t.Fatal("huge CoW did not copy")
	}
	if !pte.Flags.Has(pagetable.Writable) {
		t.Fatal("copied mapping should be writable")
	}
	child.Exit()
	p.Exit()
	if k.Machine.FreePages() != k.Machine.TotalPages() {
		t.Fatal("huge CoW teardown leaked")
	}
}

func TestReadaheadStopsAtEOF(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	f := k.Cache.CreateFile(5 * addr.PageSize) // smaller than the window
	if err := k.Cache.Read(f, 0, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if f.CachedPages() != 5 {
		t.Fatalf("cached = %d, want clamped to file size 5", f.CachedPages())
	}
}
