package osim

import (
	"repro/internal/mem/addr"
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
		cv, err := child.VMAs.Insert(v.Start, v.Size(), v.Kind)
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
// PTEs so the hardware walker will feed SpOT. The backward walk stops
// at the first already-tagged entry (a tagged run is by construction
// already past the threshold), keeping the amortised cost O(1).
func (k *Kernel) markContiguity(pt *pagetable.Table, va addr.VirtAddr, pfn addr.PFN, order int) {
	runPages := addr.OrderPages(order)
	// Walk backwards over VA-adjacent leaves that are also physically
	// adjacent (same offset).
	walked := k.contigScratch[:0]
	curVA, curPFN := va, pfn
	thresholdMet := false
	for {
		if curVA < addr.PageSize { // underflow guard
			break
		}
		prevVA := curVA - addr.PageSize // last page of the predecessor leaf
		pte, pages, ok := pt.Lookup(prevVA)
		if !ok {
			break
		}
		// The predecessor leaf must end exactly where we begin, both
		// virtually (guaranteed: Lookup(prev page)) and physically.
		if pte.PFN+addr.PFN(pages) != curPFN {
			break
		}
		leafVA := curVA - addr.VirtAddr(pages*addr.PageSize)
		if pte.Flags.Has(pagetable.Contig) {
			thresholdMet = true
			break
		}
		walked = append(walked, leafVA)
		runPages += pages
		curVA, curPFN = leafVA, pte.PFN
		if runPages >= k.ContigThresholdPages {
			thresholdMet = true
			break
		}
	}
	k.contigScratch = walked
	if runPages >= k.ContigThresholdPages {
		thresholdMet = true
	}
	if !thresholdMet {
		return
	}
	pt.SetContig(va, true)
	for _, w := range walked {
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
