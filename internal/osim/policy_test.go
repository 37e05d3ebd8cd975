package osim

import (
	"sort"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim/pagetable"
)

// contiguousRuns extracts the physically contiguous mapping runs of a
// process (pagemap-style): maximal extents where VA and PA advance in
// lockstep. Returned as run lengths in pages, descending.
func contiguousRuns(p *Process) []uint64 {
	var runs []uint64
	var curLen uint64
	var nextVA addr.VirtAddr
	var nextPFN addr.PFN
	p.PT.Visit(func(l pagetable.Leaf) {
		if curLen > 0 && l.VA == nextVA && l.PTE.PFN == nextPFN {
			curLen += l.Pages
		} else {
			if curLen > 0 {
				runs = append(runs, curLen)
			}
			curLen = l.Pages
		}
		nextVA = l.VA.Add(l.Pages * addr.PageSize)
		nextPFN = l.PTE.PFN + addr.PFN(l.Pages)
	})
	if curLen > 0 {
		runs = append(runs, curLen)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] > runs[j] })
	return runs
}

func TestCASingleVMAFullyContiguous(t *testing.T) {
	// On a fresh machine CA paging must back an entire VMA with one
	// contiguous mapping, across many demand faults.
	k := newKernel(t, 64, CAPolicy{})
	p := k.NewProcess(0)
	v, _ := p.MMap(32 * addr.HugeSize) // 64 MiB
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	runs := contiguousRuns(p)
	if len(runs) != 1 {
		t.Fatalf("CA produced %d runs (%v), want 1", len(runs), runs)
	}
	if runs[0] != v.Pages() {
		t.Fatalf("run covers %d pages, want %d", runs[0], v.Pages())
	}
	if k.Stats.CATargetHits == 0 {
		t.Fatal("no targeted allocations recorded")
	}
}

func TestCAResistsMultiProcessInterleaving(t *testing.T) {
	// Two processes faulting in alternating bursts (time-slice-style)
	// interleave badly under the default policy; CA paging's next-fit
	// re-placement keeps each footprint in far fewer, larger runs.
	run := func(policy Placement) (runsA, runsB []uint64) {
		k := newKernel(t, 64, policy)
		pa, pb := k.NewProcess(0), k.NewProcess(0)
		va, _ := pa.MMap(32 * addr.HugeSize)
		vb, _ := pb.MMap(32 * addr.HugeSize)
		const burst = 8 * addr.HugeSize // 8 huge pages per time slice
		for off := uint64(0); off < va.Size(); off += burst {
			for b := uint64(0); b < burst; b += addr.HugeSize {
				if _, err := pa.Touch(va.Start.Add(off+b), true); err != nil {
					t.Fatal(err)
				}
			}
			for b := uint64(0); b < burst; b += addr.HugeSize {
				if _, err := pb.Touch(vb.Start.Add(off+b), true); err != nil {
					t.Fatal(err)
				}
			}
		}
		return contiguousRuns(pa), contiguousRuns(pb)
	}
	caA, caB := run(CAPolicy{})
	defA, defB := run(DefaultPolicy{})
	if len(caA)*2 > len(defA) || len(caB)*2 > len(defB) {
		t.Fatalf("CA runs (%d/%d) should be far fewer than default (%d/%d)",
			len(caA), len(caB), len(defA), len(defB))
	}
	// CA's largest run must cover at least a burst.
	if caA[0] < 8*512 {
		t.Fatalf("CA largest run = %d pages, want >= %d", caA[0], 8*512)
	}
}

func TestCASubVMAPlacementUnderFragmentation(t *testing.T) {
	// Fragment the machine so no single free region fits the VMA; CA
	// must fall back to a handful of sub-VMA placements, not hundreds.
	k := newKernel(t, 64, CAPolicy{})
	// Pin every 8th MAX_ORDER block, splitting free space into 64-block
	// islands of 7 blocks (28 MiB each).
	for i := 0; i < 64; i += 8 {
		if err := k.Machine.Reserve(addr.PFN(i*addr.MaxOrderPages), addr.MaxOrderPages); err != nil {
			t.Fatal(err)
		}
	}
	p := k.NewProcess(0)
	v, _ := p.MMap(40 * addr.HugeSize) // 80 MiB > any 28 MiB island
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	if v.MappedPages != v.Pages() {
		t.Fatal("VMA not fully mapped")
	}
	runs := contiguousRuns(p)
	if len(runs) > 8 {
		t.Fatalf("CA produced %d runs under fragmentation, want few: %v", len(runs), runs)
	}
	if k.Stats.CAReplacements < 2 {
		t.Fatalf("expected sub-VMA re-placements, got %d", k.Stats.CAReplacements)
	}
}

func TestEagerPreallocatesWholeVMA(t *testing.T) {
	k := newKernel(t, 64, EagerPolicy{})
	p := k.NewProcess(0)
	v, err := p.MMap(16 * addr.HugeSize) // 32 MiB, power of two
	if err != nil {
		t.Fatal(err)
	}
	// Fully mapped before any touch.
	if v.MappedPages != v.Pages() {
		t.Fatalf("eager mapped %d of %d", v.MappedPages, v.Pages())
	}
	if k.Stats.Faults[FaultEager] != 1 {
		t.Fatalf("eager faults = %d", k.Stats.Faults[FaultEager])
	}
	// Touching afterwards never faults.
	before := k.Stats.TotalFaults()
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	if k.Stats.TotalFaults() != before {
		t.Fatal("touch faulted under eager")
	}
	// One contiguous aligned run (32 MiB fits in an aligned run on a
	// fresh 256 MiB machine).
	runs := contiguousRuns(p)
	if len(runs) != 1 || runs[0] != v.Pages() {
		t.Fatalf("eager runs = %v", runs)
	}
	// Eager latency is one giant event.
	if len(k.Stats.FaultLatencies) != 1 {
		t.Fatalf("latencies = %v, want one", k.Stats.FaultLatencies)
	}
	for lat := range k.Stats.FaultLatencies {
		if lat < v.Pages()*ZeroPageNs {
			t.Fatal("eager latency should include zeroing the whole VMA")
		}
	}
}

func TestEagerAlignmentSensitivity(t *testing.T) {
	// Occupy one 4K page inside each 4 MiB block of the first half of
	// the machine: unaligned contiguity survives (~4 MiB chunks minus a
	// page), but *aligned* MAX_ORDER blocks vanish there. Eager must
	// fall apart into small blocks while CA still builds big runs.
	build := func(policy Placement) []uint64 {
		k := newKernel(t, 64, policy)
		for i := 0; i < 32; i++ {
			if err := k.Machine.Reserve(addr.PFN(i*addr.MaxOrderPages+512), 1); err != nil {
				t.Fatal(err)
			}
		}
		p := k.NewProcess(0)
		v, err := p.MMap(16 * addr.HugeSize)
		if err != nil {
			t.Fatal(err)
		}
		touchRange(t, p, v.Start, v.Size(), addr.PageSize)
		return contiguousRuns(p)
	}
	eagerRuns := build(EagerPolicy{})
	caRuns := build(CAPolicy{})
	if len(caRuns) > len(eagerRuns) {
		t.Fatalf("CA (%d runs) should beat eager (%d runs) under fragmentation", len(caRuns), len(eagerRuns))
	}
}

func TestIdealMatchesCAOnFreshMachine(t *testing.T) {
	for _, policy := range []Placement{NewIdealPolicy(), CAPolicy{}} {
		k := newKernel(t, 64, policy)
		p := k.NewProcess(0)
		v, _ := p.MMap(16 * addr.HugeSize)
		touchRange(t, p, v.Start, v.Size(), addr.PageSize)
		runs := contiguousRuns(p)
		if len(runs) != 1 {
			t.Fatalf("%s runs = %v", policy.Name(), runs)
		}
	}
}

func TestIdealBestFitPicksSmallestFittingHole(t *testing.T) {
	k := newKernel(t, 64, NewIdealPolicy())
	// Create two holes: blocks [8,16) free (8 blocks) and [32,48) free
	// (16 blocks); everything else pinned.
	for i := 0; i < 64; i++ {
		if i >= 8 && i < 16 || i >= 32 && i < 48 {
			continue
		}
		if err := k.Machine.Reserve(addr.PFN(i*addr.MaxOrderPages), addr.MaxOrderPages); err != nil {
			t.Fatal(err)
		}
	}
	p := k.NewProcess(0)
	// 6 blocks worth: best-fit should choose the 8-block hole.
	v, _ := p.MMap(6 * addr.MaxOrderSize)
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	pa, ok := p.PT.Translate(v.Start)
	if !ok {
		t.Fatal("unmapped")
	}
	if pa.Frame() < 8*addr.MaxOrderPages || pa.Frame() >= 16*addr.MaxOrderPages {
		t.Fatalf("ideal placed at %d, outside the best-fit hole", pa.Frame())
	}
	if len(contiguousRuns(p)) != 1 {
		t.Fatal("ideal placement fragmented")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Placement{
		"default": DefaultPolicy{},
		"ca":      CAPolicy{},
		"eager":   EagerPolicy{},
		"ideal":   NewIdealPolicy(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Fatalf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestCAMultiZoneSpill(t *testing.T) {
	// A VMA larger than zone 0 must spill into zone 1 and still form
	// few runs.
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{
		16 * addr.MaxOrderPages, 16 * addr.MaxOrderPages,
	}})
	k := NewKernel(m, CAPolicy{})
	p := k.NewProcess(0)
	v, _ := p.MMap(24 * addr.MaxOrderSize) // 1.5 zones
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	if v.MappedPages != v.Pages() {
		t.Fatal("not fully mapped")
	}
	runs := contiguousRuns(p)
	if len(runs) > 3 {
		t.Fatalf("cross-zone CA runs = %v", runs)
	}
}

func TestCAFallbackWhenContigMapEmpty(t *testing.T) {
	// Consume all MAX_ORDER blocks so the contiguity map is empty; CA
	// must still serve faults via the default path.
	k := newKernel(t, 4, CAPolicy{})
	var order0 []addr.PFN
	for _, z := range k.Machine.Zones {
		for z.Buddy.FreeBlocks(addr.MaxOrder) > 0 {
			pfn, err := z.Buddy.AllocBlock(addr.HugeOrder)
			if err != nil {
				t.Fatal(err)
			}
			order0 = append(order0, pfn)
		}
	}
	// Free half the huge blocks back (they re-coalesce below MAX_ORDER
	// only if buddies remain held; hold every other one).
	for i, pfn := range order0 {
		if i%2 == 0 {
			k.Machine.FreeBlock(pfn, addr.HugeOrder)
		}
	}
	p := k.NewProcess(0)
	v, _ := p.MMap(4 * addr.HugeSize)
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	if v.MappedPages != v.Pages() {
		t.Fatal("CA failed to fall back with empty contiguity map")
	}
}
