package osim

import (
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
)

// EagerPolicy models eager paging (RMM, Karakostas et al.), the
// pre-allocation baseline the paper compares against: the whole VMA is
// backed at creation time using the largest *aligned* power-of-two
// blocks available, as an allocator with a raised MAX_ORDER would hand
// out. Because it only consumes naturally aligned blocks, it is highly
// sensitive to external fragmentation — the behaviour Fig. 1b and
// Fig. 8 demonstrate — and its up-front zeroing of huge regions
// produces the extreme page-fault tail latencies of Table V.
type EagerPolicy struct{}

// eagerMaxBlockPages caps the largest block eagerly allocated at once:
// 2^18 pages = 1 GiB, the x86-64 gigantic-page scale.
const eagerMaxBlockPages = 1 << 18

// Name implements Placement.
func (EagerPolicy) Name() string { return "eager" }

// MarksContiguity implements Placement.
func (EagerPolicy) MarksContiguity() bool { return false }

// OnMMap implements Placement: back the entire VMA now.
func (EagerPolicy) OnMMap(k *Kernel, p *Process, v *vma.VMA) error {
	if v.Kind != vma.Anonymous {
		return nil // file mappings stay demand paged through the cache
	}
	va := v.Start
	remaining := v.Pages()
	var totalZeroed uint64
	for remaining > 0 {
		pfn, got, ok := eagerLargestAligned(k, p.HomeZone, remaining)
		if !ok {
			return ErrOOM
		}
		k.mapRange(p, v, va, pfn, got, pagetable.Writable)
		va = va.Add(got * addr.PageSize)
		remaining -= got
		totalZeroed += got
	}
	// One eager "fault" event per mmap: entry cost plus zeroing the
	// whole pre-allocated footprint.
	k.recordFault(FaultEager, v.Start, FaultBaseNs+totalZeroed*ZeroPageNs)
	return nil
}

// The kernel's eagerRotor scatters consecutive above-MAX_ORDER block
// selections across candidate free runs, the way a real
// (raised-MAX_ORDER) buddy's churned LIFO lists hand out blocks from
// arbitrary locations. Without it the simulator's pristine
// address-ordered lists would make eager's chunks physically adjacent —
// accidental contiguity no aged machine provides.

// eagerLargestAligned allocates the largest aligned power-of-two block
// with size <= min(remaining rounded to power of two,
// eagerMaxBlockPages), searching the zonelist. Blocks above the buddy
// MAX_ORDER are located through the contiguity map (emulating a raised
// MAX_ORDER allocator: an aligned run of free MAX_ORDER blocks *is* the
// larger block such an allocator would track).
func eagerLargestAligned(k *Kernel, homeZone int, remaining uint64) (addr.PFN, uint64, bool) {
	want := uint64(1)
	for want*2 <= remaining && want*2 <= eagerMaxBlockPages {
		want *= 2
	}
	for pages := want; pages >= 1; pages /= 2 {
		var candidates []addr.PFN
		for _, z := range zonesFrom(k.Machine, homeZone) {
			if pages <= addr.MaxOrderPages {
				order := addr.OrderFor(pages)
				if pfn, err := z.Buddy.AllocBlock(order); err == nil {
					return pfn, pages, true
				}
				continue
			}
			candidates = append(candidates, alignedRunsInZone(z, pages)...)
		}
		for try := 0; try < len(candidates); try++ {
			pfn := candidates[int(k.eagerRotor*2654435761)%len(candidates)]
			k.eagerRotor++
			if z := k.Machine.ZoneOf(pfn); z != nil {
				if err := z.Buddy.Reserve(pfn, pages); err == nil {
					return pfn, pages, true
				}
			}
		}
	}
	return 0, 0, false
}

// alignedRunsInZone lists pages-aligned fully free runs of the given
// power-of-two size inside the zone's contiguity clusters: up to a few
// spread-out candidates per cluster, so selection does not degenerate
// into address order.
func alignedRunsInZone(z *zone.Zone, pages uint64) []addr.PFN {
	var out []addr.PFN
	z.Contig.VisitRanges(func(start addr.PFN, n uint64) {
		first := addr.PFN((uint64(start) + pages - 1) &^ (pages - 1))
		end := start + addr.PFN(n)
		count := 0
		for cand := first; cand+addr.PFN(pages) <= end && count < 4; cand += addr.PFN(pages) {
			out = append(out, cand)
			count++
		}
	})
	return out
}

// PlaceAnon implements Placement: demand faults under eager paging only
// happen for regions pre-allocation could not back (or CoW); serve them
// with the default allocator.
func (EagerPolicy) PlaceAnon(k *Kernel, p *Process, _ *vma.VMA, _ addr.VirtAddr, order int) (addr.PFN, bool, error) {
	pfn, err := k.Machine.AllocBlock(p.HomeZone, order)
	if err != nil {
		return 0, false, ErrOOM
	}
	return pfn, false, nil
}

// PlaceFile implements Placement.
func (EagerPolicy) PlaceFile(k *Kernel, _ *File, _ uint64, out []addr.PFN) (int, bool, error) {
	return placeFileRun(k, out)
}

// zonesFrom returns machine zones in preference order.
func zonesFrom(m *zone.Machine, preferred int) []*zone.Zone {
	if preferred < 0 || preferred >= len(m.Zones) {
		preferred = 0
	}
	out := make([]*zone.Zone, 0, len(m.Zones))
	for i := 0; i < len(m.Zones); i++ {
		out = append(out, m.Zones[(preferred+i)%len(m.Zones)])
	}
	return out
}
