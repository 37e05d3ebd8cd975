package osim

import (
	"sort"

	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
)

// IdealPolicy is the paper's "ideal paging" baseline: an offline
// best-fit over the contiguity map's state *before* execution, giving
// the maximum contiguity the machine's free memory could possibly
// provide. It then demand-pages exactly like CA paging, steered by the
// precomputed plan. Used as the upper bound in Figs. 7, 8, 12.
//
// Being offline, the planner sees all VMAs jointly: regions promised to
// earlier VMAs are subtracted from later snapshots, so concurrent plans
// never collide. Construct with NewIdealPolicy (the shared plan state
// lives behind a pointer).
type IdealPolicy struct {
	state *idealState
}

// idealState records the physical spans already promised to plans.
type idealState struct {
	reserved []idealSpan
}

type idealSpan struct {
	start addr.PFN
	pages uint64
}

// NewIdealPolicy creates the policy with fresh plan state.
func NewIdealPolicy() IdealPolicy { return IdealPolicy{state: &idealState{}} }

// Name implements Placement.
func (IdealPolicy) Name() string { return "ideal" }

// MarksContiguity implements Placement.
func (IdealPolicy) MarksContiguity() bool { return true }

// OnMMap implements Placement: compute the best-fit plan against a
// snapshot of the current free clusters minus regions promised to
// earlier plans, and pre-seed the VMA's Offsets.
func (ip IdealPolicy) OnMMap(k *Kernel, p *Process, v *vma.VMA) error {
	if v.Kind != vma.Anonymous {
		return nil
	}
	var snapshot []idealSpan
	for _, z := range zonesFrom(k.Machine, p.HomeZone) {
		z.Contig.VisitRanges(func(start addr.PFN, pages uint64) {
			snapshot = append(snapshot, idealSpan{start, pages})
		})
	}
	if ip.state != nil {
		snapshot = subtractSpans(snapshot, ip.state.reserved)
	}
	remaining := v.Pages()
	vaCursor := v.Start
	for remaining > 0 && len(snapshot) > 0 {
		// Best fit: smallest free span that still fits; otherwise the
		// largest available.
		sort.Slice(snapshot, func(i, j int) bool { return snapshot[i].pages < snapshot[j].pages })
		idx := sort.Search(len(snapshot), func(i int) bool { return snapshot[i].pages >= remaining })
		if idx == len(snapshot) {
			idx = len(snapshot) - 1 // largest
		}
		c := snapshot[idx]
		// Plans anchor Offsets serving 2 MiB faults: huge-align the
		// span start within the free region.
		alignedStart := addr.PFN((uint64(c.start) + 511) &^ 511)
		shift := uint64(alignedStart - c.start)
		if shift >= c.pages {
			snapshot = append(snapshot[:idx], snapshot[idx+1:]...)
			continue
		}
		c = idealSpan{alignedStart, c.pages - shift}
		take := c.pages
		if take > remaining {
			take = remaining
		}
		v.TrackOffset(vaCursor, addr.OffsetOf(vaCursor, c.start.Addr()))
		if ip.state != nil {
			ip.state.reserved = append(ip.state.reserved, idealSpan{c.start, take})
		}
		vaCursor = vaCursor.Add(take * addr.PageSize)
		remaining -= take
		snapshot = append(snapshot[:idx], snapshot[idx+1:]...)
	}
	return nil
}

// subtractSpans removes reserved regions from the free snapshot.
func subtractSpans(free, reserved []idealSpan) []idealSpan {
	out := free
	for _, r := range reserved {
		var next []idealSpan
		rEnd := r.start + addr.PFN(r.pages)
		for _, f := range out {
			fEnd := f.start + addr.PFN(f.pages)
			if rEnd <= f.start || r.start >= fEnd {
				next = append(next, f) // disjoint
				continue
			}
			if r.start > f.start {
				next = append(next, idealSpan{f.start, uint64(r.start - f.start)})
			}
			if rEnd < fEnd {
				next = append(next, idealSpan{rEnd, uint64(fEnd - rEnd)})
			}
		}
		out = next
	}
	return out
}

// PlaceAnon implements Placement: follow the plan; fall back to the
// default allocator when the planned frame is taken.
func (IdealPolicy) PlaceAnon(k *Kernel, p *Process, v *vma.VMA, va addr.VirtAddr, order int) (addr.PFN, bool, error) {
	if off, ok := v.NearestOffset(va); ok {
		if pfn, ok := caTryTarget(k, off, va, order); ok {
			k.Stats.CATargetHits++
			return pfn, false, nil
		}
		k.Stats.CAFallbacks++
	}
	pfn, err := k.Machine.AllocBlock(p.HomeZone, order)
	if err != nil {
		return 0, false, ErrOOM
	}
	return pfn, false, nil
}

// PlaceFile implements Placement.
func (IdealPolicy) PlaceFile(k *Kernel, _ *File, _ uint64, out []addr.PFN) (int, bool, error) {
	return placeFileRun(k, out)
}
