package osim

import (
	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
	"repro/internal/trace"
)

// CAPolicy is the paper's contiguity-aware paging (§III): demand paging
// whose physical allocations are steered through per-VMA Offsets and
// the per-zone contiguity map so that consecutive faults of a VMA land
// on consecutive frames.
//
// Mechanism summary (paper §III-B/C):
//   - first fault of a VMA runs a next-fit placement over the
//     contiguity map keyed by the whole VMA size and records the
//     resulting Offset on the VMA;
//   - later faults compute target = va - Offset (nearest tracked
//     Offset) and try a targeted buddy allocation there;
//   - a failed huge-page target triggers a re-placement keyed by the
//     remaining unmapped VMA size (sub-VMA placement, up to 64 Offsets,
//     FIFO), gated by the per-VMA atomic replacement flag;
//   - a failed 4 KiB target falls back to the default allocator and
//     skips Offset tracking;
//   - page-cache allocations are steered through a per-file Offset.
type CAPolicy struct {
	// Reservation optionally enables the §III-D reservation extension:
	// placements soft-reserve their regions so concurrent placements by
	// other VMAs are steered elsewhere. Nil disables it (the paper's
	// evaluated best-effort configuration).
	Reservation *CAReservation
}

// Name implements Placement.
func (CAPolicy) Name() string { return "ca" }

// OnMMap implements Placement. CA paging decides lazily, at first
// fault, so VMA creation is a no-op.
func (CAPolicy) OnMMap(*Kernel, *Process, *vma.VMA) error { return nil }

// MarksContiguity implements Placement: CA paging maintains the PTE
// contiguity bits that let the walker fill SpOT's prediction table.
func (CAPolicy) MarksContiguity() bool { return true }

// PlaceAnon implements Placement with the CA steering algorithm.
func (c CAPolicy) PlaceAnon(k *Kernel, p *Process, v *vma.VMA, va addr.VirtAddr, order int) (addr.PFN, bool, error) {
	placed := false
	off, have := v.NearestOffset(va)
	if !have {
		// First fault for this VMA: place it keyed by the full size.
		c.caPlace(k, p, v, va, v.Pages())
		k.Stats.CAReplacements++
		placed = true
		off, have = v.NearestOffset(va)
	}
	if have {
		if pfn, ok := caTryTarget(k, off, va, order); ok {
			k.Stats.CATargetHits++
			if k.Tracer != nil {
				k.Tracer.Emit(trace.EvCATargetHit, uint64(va), uint64(pfn), uint64(order))
			}
			return pfn, placed, nil
		}
		// Target unavailable: the free block ran out or another
		// allocation took it.
		if order == addr.HugeOrder {
			// Re-place keyed by the remaining unmapped region. The
			// atomic gate admits one concurrent re-placer; losers
			// retry the (possibly updated) nearest offset.
			if v.TryBeginReplacement() {
				c.caPlace(k, p, v, va, v.UnmappedPages())
				k.Stats.CAReplacements++
				v.EndReplacement()
				placed = true
			}
			if off, ok := v.NearestOffset(va); ok {
				if pfn, ok := caTryTarget(k, off, va, order); ok {
					k.Stats.CATargetHits++
					if k.Tracer != nil {
						k.Tracer.Emit(trace.EvCATargetHit, uint64(va), uint64(pfn), uint64(order))
					}
					return pfn, placed, nil
				}
			}
		}
		// 4 KiB fallback (or huge re-placement also missed): default
		// allocation, no Offset tracking.
		k.Stats.CAFallbacks++
		if k.Tracer != nil {
			k.Tracer.Emit(trace.EvCAFallback, uint64(va), uint64(order), 0)
		}
	}
	pfn, err := k.Machine.AllocBlock(p.HomeZone, order)
	if err != nil {
		return 0, placed, ErrOOM
	}
	return pfn, placed, nil
}

// caTryTarget attempts the targeted allocation at the offset-predicted
// frame for va.
func caTryTarget(k *Kernel, off addr.Offset, va addr.VirtAddr, order int) (addr.PFN, bool) {
	target := off.TargetPFN(va)
	if !addr.AlignedTo(target, order) {
		return 0, false
	}
	if err := k.Machine.AllocBlockAt(target, order); err != nil {
		return 0, false
	}
	return target, true
}

// caPlace runs the next-fit placement decision: find a free region for
// sizePages and anchor a new Offset so that the current fault maps to
// the region's start. With the reservation extension enabled, regions
// soft-reserved by other VMAs are skipped (the rover naturally advances
// on each retry).
func (c CAPolicy) caPlace(k *Kernel, p *Process, v *vma.VMA, va addr.VirtAddr, sizePages uint64) {
	if sizePages == 0 {
		sizePages = 1
	}
	const maxTries = 8
	for try := 0; try < maxTries; try++ {
		_, start, avail, ok := k.Machine.FindFit(p.HomeZone, sizePages)
		if !ok {
			return
		}
		if c.Reservation != nil {
			claim := sizePages
			if claim > avail {
				claim = avail
			}
			owner := ownerOf(p, v)
			if c.Reservation.conflicts(owner, start, claim) {
				continue
			}
			c.Reservation.reserve(owner, start, claim)
		}
		off := addr.OffsetOf(va, start.Addr())
		v.TrackOffset(va, off)
		if k.Tracer != nil {
			k.Tracer.Emit(trace.EvCAPlace, uint64(va), uint64(off), sizePages)
		}
		return
	}
}

// PlaceFile implements Placement: page-cache allocations are steered by
// a per-file Offset so long-lived cache pages stay physically clustered
// instead of fragmenting the machine (§III-C "Supported faults"). It
// places one page per call: each page's target and fallback depend on
// the pages cached before it.
func (CAPolicy) PlaceFile(k *Kernel, f *File, pageIdx uint64, out []addr.PFN) (int, bool, error) {
	// The "virtual address" key for a file mapping is its byte offset.
	key := addr.VirtAddr(pageIdx << addr.PageShift)
	placed := false
	if !f.placedOffset {
		remaining := f.Pages() - f.CachedPages()
		if _, start, _, ok := k.Machine.FindFit(0, remaining); ok {
			f.offset = addr.OffsetOf(key, start.Addr())
			f.placedOffset = true
			placed = true
			if k.Tracer != nil {
				k.Tracer.Emit(trace.EvCAPlace, uint64(key), uint64(f.offset), remaining)
			}
		}
	}
	if f.placedOffset {
		if pfn, ok := caTryTarget(k, f.offset, key, 0); ok {
			if k.Tracer != nil {
				k.Tracer.Emit(trace.EvCATargetHit, uint64(key), uint64(pfn), 0)
			}
			out[0] = pfn
			return 1, placed, nil
		}
		// Re-place once keyed by the remaining uncached pages.
		remaining := f.Pages() - f.CachedPages()
		if remaining == 0 {
			remaining = 1
		}
		if _, start, _, ok := k.Machine.FindFit(0, remaining); ok {
			f.offset = addr.OffsetOf(key, start.Addr())
			placed = true
			if pfn, ok := caTryTarget(k, f.offset, key, 0); ok {
				out[0] = pfn
				return 1, placed, nil
			}
		}
		k.Stats.CAFallbacks++
	}
	pfn, err := k.Machine.AllocBlock(0, 0)
	if err != nil {
		return 0, placed, ErrOOM
	}
	out[0] = pfn
	return 1, placed, nil
}
