package osim

import (
	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
)

// Touch simulates an access to va, faulting in memory on demand. It is
// the entry point workloads drive: it marks the touched-page bitmap,
// resolves copy-on-write on writes, and otherwise dispatches to the
// demand-paging fault path. It reports whether a fault was taken.
func (p *Process) Touch(va addr.VirtAddr, write bool) (bool, error) {
	v := p.VMAs.Find(va)
	if v == nil {
		return false, ErrSegfault
	}
	return p.TouchAt(v, va, write)
}

// TouchAt is Touch with the containing VMA already resolved: the
// range-fault path hoists the VMA lookup out of its per-page loop. v
// must be the VMA containing va.
func (p *Process) TouchAt(v *vma.VMA, va addr.VirtAddr, write bool) (bool, error) {
	// Touch-bitmap and Accessed/Dirty writes feed Ingens' utilization
	// probe, so even faultless touches invalidate daemon memos.
	p.kernel.mutSeq++
	v.MarkTouched(uint64(va-v.Start) / addr.PageSize)
	pte, pages, ok := p.PT.Lookup(va)
	if !ok {
		return true, p.kernel.demandFault(p, v, va, write)
	}
	if write && pte.Flags.Has(pagetable.CoW) {
		return true, p.kernel.cowFault(p, v, va, pte, pages)
	}
	pte.Flags |= pagetable.Accessed
	if write {
		pte.Flags |= pagetable.Dirty
	}
	return false, nil
}

// demandFault handles a not-present fault: anonymous (4K or THP) or
// file-backed through the page cache.
func (k *Kernel) demandFault(p *Process, v *vma.VMA, va addr.VirtAddr, write bool) error {
	if v.Kind == vma.FileBacked {
		return k.fileFault(p, v, va)
	}
	// THP decision: use a 2 MiB fault when the aligned huge region lies
	// fully inside the VMA and nothing is mapped there yet.
	if k.THPEnabled && k.canMapHuge(p, v, va) {
		return k.anonFault(p, v, va.HugeDown(), addr.HugeOrder, write)
	}
	return k.anonFault(p, v, va.PageDown(), 0, write)
}

// canMapHuge reports whether the huge-aligned region around va can take
// a 2 MiB mapping: fully inside the VMA and currently empty. Emptiness
// is a leaf-table presence check — one radix descent to the PMD slot.
// (It used to probe all 512 page slots; the common case, first touch of
// an untouched region, ran the *whole* loop before concluding empty.)
func (k *Kernel) canMapHuge(p *Process, v *vma.VMA, va addr.VirtAddr) bool {
	base := va.HugeDown()
	if base < v.Start || base.Add(addr.HugeSize) > v.End {
		return false
	}
	return p.PT.HugeRegionEmpty(base)
}

// TouchRangeQuiet touches up to maxPages consecutive pages starting at
// va, advancing only while no fault would be taken: each page must be
// present and, on a write, not copy-on-write. It sets the hardware
// Accessed/Dirty bits and the touched bitmap exactly as the per-page
// TouchAt loop would, but walks each resolved leaf table linearly
// instead of descending per page. It stops before the first page that
// needs the fault path and returns how many pages it advanced over. v
// must contain [va, va+maxPages*4K).
func (p *Process) TouchRangeQuiet(v *vma.VMA, va addr.VirtAddr, maxPages uint64, write bool) uint64 {
	set := pagetable.Accessed
	var stop pagetable.Flags
	if write {
		set |= pagetable.Dirty
		stop = pagetable.CoW
	}
	var done uint64
	for done < maxPages {
		n := p.PT.FlagRun(va.Add(done*addr.PageSize), maxPages-done, set, stop)
		if n == 0 {
			break
		}
		done += n
	}
	if done > 0 {
		v.MarkTouchedRange(uint64(va-v.Start)/addr.PageSize, done)
		p.kernel.mutSeq++
	}
	return done
}

// FaultRun is the extent form of the write fault CA paging takes at an
// unmapped anonymous page whose VMA already has an Offset: each such
// page maps to va − Offset, the frame right after the previous page's.
// It faults in the longest run of pages from va (at most maxPages)
// that is unmapped, inside one leaf table and the VMA, and keeps the
// same nearest Offset entry, claiming the targets block by block until
// one is busy (zone.Machine.AllocRunAt) and mapping the run with one
// descent. It returns how many pages it faulted in; the state is that
// of as many TouchAt(v, va+i, true) calls, and a traced run emits, page
// by page, the target-hit and 4 KiB fault events those calls would. It
// declines (returns 0) under any other policy, for a file VMA, at a
// THP-eligible page, before the VMA's first placement, and when the
// first target is busy: the caller then takes the per-page step. The
// caller guarantees that nothing else runs between those per-page
// steps (no daemon polls).
func (p *Process) FaultRun(v *vma.VMA, va addr.VirtAddr, maxPages uint64) uint64 {
	k := p.kernel
	if _, ca := k.Policy.(CAPolicy); !ca || v.Kind != vma.Anonymous || !va.PageAligned() {
		return 0
	}
	// The two cheap declines, no Offset yet and a busy first target,
	// come before the page-table probes: on a fragmented machine most
	// calls end at one of them.
	off, n, ok := v.NearestOffsetRun(va, min(maxPages, uint64(v.End-va)/addr.PageSize))
	if !ok {
		return 0
	}
	pfn := off.TargetPFN(va)
	if k.Machine.ZoneOf(pfn) == nil || k.Machine.Frames.Get(pfn).State != frame.Free {
		return 0
	}
	n = p.PT.UnmappedRun(va, n)
	if n == 0 || k.THPEnabled && k.canMapHuge(p, v, va) {
		return 0
	}
	if n = k.Machine.AllocRunAt(pfn, n); n == 0 {
		return 0
	}
	// Page i of the run walks back over pages 0..i-1, untagged and
	// adjacent, before reaching what page 0's walk reaches: it meets
	// the threshold once page 0's run plus i pages does, and the first
	// page to meet it tags everything behind it.
	flags := pagetable.Flags(pagetable.Writable)
	if runPages, met := k.contigPreds(p.PT, va, pfn, 1); met || runPages+n-1 >= ContigThresholdPages {
		flags |= pagetable.Contig
		k.tagContigPreds(p.PT)
	}
	p.PT.MapRun4K(va, pfn, n, flags)
	fs := k.Machine.Frames.Slice(pfn, n)
	for i := range fs {
		fs[i].MapCount++
	}
	k.Stats.CATargetHits += n
	k.mutSeq += n // TouchAt's; recordFaults adds the faults' own
	lat := k.faultLatency(0, false)
	if k.Tracer != nil {
		for i := range n {
			pva := uint64(va.Add(i * addr.PageSize))
			k.Tracer.Emit(trace.EvCATargetHit, pva, uint64(pfn)+i, 0)
			k.Tracer.Emit(trace.EvFault4K, pva, lat, k.Clock+(i+1)*lat)
		}
	}
	k.recordFaults(Fault4K, n, lat)
	v.MarkTouchedRange(uint64(va-v.Start)/addr.PageSize, n)
	v.MappedPages += n
	p.RSSPages += n
	return n
}

// anonFault allocates and maps one block of the given order at va.
func (k *Kernel) anonFault(p *Process, v *vma.VMA, va addr.VirtAddr, order int, write bool) error {
	pfn, placed, err := k.Policy.PlaceAnon(k, p, v, va, order)
	if err != nil {
		return err
	}
	flags := pagetable.Flags(pagetable.Writable)
	if order == addr.HugeOrder {
		p.PT.Map2M(va, pfn, flags)
		k.recordFault(FaultHuge, va, k.faultLatency(order, placed))
		v.MappedPages += addr.HugePages
		p.RSSPages += addr.HugePages
	} else {
		p.PT.Map4K(va, pfn, flags)
		k.recordFault(Fault4K, va, k.faultLatency(order, placed))
		v.MappedPages++
		p.RSSPages++
	}
	k.Machine.Frames.Get(pfn).MapCount++
	if k.Policy.MarksContiguity() {
		k.markContiguity(p.PT, va, pfn, order)
	}
	return nil
}

// faultLatency models fault service time: entry overhead + zeroing the
// allocated block (+ placement search when the policy made a decision).
func (k *Kernel) faultLatency(order int, placed bool) uint64 {
	lat := uint64(FaultBaseNs) + addr.OrderPages(order)*ZeroPageNs
	if placed {
		lat += PlacementNs
	}
	return lat
}

// cowFault resolves a write to a CoW mapping: allocate a private copy,
// remap, and drop the reference on the shared frame. pte is the CoW
// leaf mapping va and pages its size, as TouchAt's lookup found them.
func (k *Kernel) cowFault(p *Process, v *vma.VMA, va addr.VirtAddr, pte *pagetable.PTE, pages uint64) error {
	order := addr.LeafOrder(pages)
	base := va.PageDown()
	if order == addr.HugeOrder {
		base = va.HugeDown()
	}
	oldPFN := pte.PFN
	shared := k.Machine.Frames.Get(oldPFN)
	if shared.MapCount == 1 {
		// Last reference: just take ownership.
		pte.Flags = (pte.Flags &^ pagetable.CoW) | pagetable.Writable | pagetable.Dirty
		k.recordFault(FaultCoW, va, FaultBaseNs)
		return nil
	}
	newPFN, placed, err := k.Policy.PlaceAnon(k, p, v, base, order)
	if err != nil {
		return err
	}
	p.PT.Unmap(base)
	flags := pagetable.Flags(pagetable.Writable | pagetable.Dirty)
	if order == addr.HugeOrder {
		p.PT.Map2M(base, newPFN, flags)
	} else {
		p.PT.Map4K(base, newPFN, flags)
	}
	shared.MapCount--
	k.Machine.Frames.Get(newPFN).MapCount++
	lat := k.faultLatency(order, placed) + addr.OrderPages(order)*CopyPageNs
	k.recordFault(FaultCoW, base, lat)
	if k.Policy.MarksContiguity() {
		k.markContiguity(p.PT, base, newPFN, order)
	}
	return nil
}

// Fork creates a copy-on-write child: same VMA layout, shared frames,
// all anonymous writable mappings downgraded to CoW in both parent and
// child.
func (p *Process) Fork() *Process {
	k := p.kernel
	k.mutSeq++
	child := k.NewProcess(p.HomeZone)
	child.nextVA = p.nextVA
	p.VMAs.Visit(func(v *vma.VMA) {
		cv, err := child.VMAs.Insert(&k.vmaFree, v.Start, v.Size(), v.Kind)
		if err != nil {
			panic("osim: fork VMA insert failed: " + err.Error())
		}
		cv.FileID = v.FileID
		cv.FileOff = v.FileOff
	})
	p.PT.Visit(func(l pagetable.Leaf) {
		v := p.VMAs.Find(l.VA)
		cv := child.VMAs.Find(l.VA)
		flags := l.PTE.Flags
		if v != nil && v.Kind == vma.Anonymous && flags.Has(pagetable.Writable) {
			flags = (flags &^ pagetable.Writable) | pagetable.CoW
			if pte, _, ok := p.PT.Lookup(l.VA); ok {
				pte.Flags = flags
			}
		}
		if l.Pages == addr.HugePages {
			child.PT.Map2M(l.VA, l.PTE.PFN, flags)
		} else {
			child.PT.Map4K(l.VA, l.PTE.PFN, flags)
		}
		k.Machine.Frames.Get(l.PTE.PFN).MapCount++
		child.RSSPages += l.Pages
		if cv != nil {
			cv.MappedPages += l.Pages
		}
	})
	return child
}

// markContiguity implements the PTE contiguity-bit protocol of §IV-C:
// after a successful allocation the OS checks whether the new mapping
// extends a contiguous run past the threshold, and if so tags the run's
// PTEs so the hardware walker will feed SpOT.
func (k *Kernel) markContiguity(pt *pagetable.Table, va addr.VirtAddr, pfn addr.PFN, order int) {
	if _, met := k.contigPreds(pt, va, pfn, addr.OrderPages(order)); met {
		pt.SetContig(va, true)
		k.tagContigPreds(pt)
	}
}

// contigPreds walks backwards from a leaf of pages base pages mapping
// va → pfn over the VA-adjacent leaves that are also physically
// adjacent, collecting them into k.contigScratch until the run they
// form with the leaf covers ContigThresholdPages (it looks at one
// predecessor even when the leaf alone covers it). It returns the run's
// page count and whether the threshold is met. The walk stops at the
// first already-tagged entry, which meets it: a tagged run is by
// construction already past the threshold, keeping the amortised cost
// O(1).
func (k *Kernel) contigPreds(pt *pagetable.Table, va addr.VirtAddr, pfn addr.PFN, pages uint64) (runPages uint64, met bool) {
	runPages = pages
	walked := k.contigScratch[:0]
	curVA, curPFN := va, pfn
	for curVA >= addr.PageSize { // underflow guard
		pte, pages, ok := pt.Lookup(curVA - addr.PageSize) // last page of the predecessor leaf
		// The predecessor leaf must end exactly where we begin, both
		// virtually (guaranteed: Lookup(prev page)) and physically.
		if !ok || pte.PFN+addr.PFN(pages) != curPFN {
			break
		}
		if pte.Flags.Has(pagetable.Contig) {
			met = true
			break
		}
		curVA, curPFN = curVA-addr.VirtAddr(pages*addr.PageSize), pte.PFN
		walked = append(walked, curVA)
		runPages += pages
		if runPages >= ContigThresholdPages {
			break
		}
	}
	k.contigScratch = walked
	return runPages, met || runPages >= ContigThresholdPages
}

// tagContigPreds sets the contiguity bit on the leaves contigPreds
// collected.
func (k *Kernel) tagContigPreds(pt *pagetable.Table) {
	for _, w := range k.contigScratch {
		pt.SetContig(w, true)
	}
}

// MigratePage moves the leaf mapping at va to dst (same size block,
// already allocated by the caller), freeing the old frames. It models
// Ranger's migration cost: per-page copy plus a TLB shootdown.
func (k *Kernel) MigratePage(p *Process, va addr.VirtAddr, dst addr.PFN) bool {
	pte, pages, ok := p.PT.Lookup(va)
	if !ok {
		return false
	}
	k.mutSeq++
	old := pte.PFN
	order := addr.LeafOrder(pages)
	// Redirect (not a raw pte.PFN write): migration changes the
	// translation, so the table's observers must hear of it.
	p.PT.Redirect(va, dst)
	f := k.Machine.Frames.Get(old)
	f.MapCount--
	if f.MapCount <= 0 {
		k.Machine.FreeBlock(old, order)
	}
	k.Machine.Frames.Get(dst).MapCount++
	k.Stats.Migrations += pages
	k.Stats.Shootdowns++
	k.Tick(pages*CopyPageNs + ShootdownNs)
	if k.Tracer != nil {
		k.Tracer.Emit(trace.EvMigrate, uint64(va), uint64(dst), pages)
	}
	return true
}
