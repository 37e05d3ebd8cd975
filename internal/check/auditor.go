package check

import (
	"fmt"
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
)

// bitset is a packed per-frame flag array, one bit per PFN relative to
// the audited frame table's base.
type bitset []uint64

func (b bitset) set(i uint64)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) get(i uint64) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// setRange sets bits [i, i+n), whole words at a time in the interior.
func (b bitset) setRange(i, n uint64) {
	for ; n > 0 && i&63 != 0; n-- {
		b.set(i)
		i++
	}
	for ; n >= 64; n -= 64 {
		b[i>>6] = ^uint64(0)
		i += 64
	}
	for ; n > 0; n-- {
		b.set(i)
		i++
	}
}

// Auditor is the reusable audit arena: dense PFN-indexed scratch state
// sized to the audited machine's frame table, allocated once and
// cleared word-at-a-time per audit. Aging campaigns hold one Auditor
// for a whole run; the package-level Audit/AuditKernels wrappers borrow
// one from an internal pool, so one-shot callers get the same engine
// without managing a lifetime.
//
// An Auditor is NOT safe for concurrent use; each concurrent audit
// needs its own. The machine handed to successive audits may differ —
// the arena regrows to the largest frame table seen.
type Auditor struct {
	base addr.PFN // audited table's first PFN (per audit)
	refs []int32  // per-frame gathered reference counts
	span bitset   // frame is inside a leaf extent or cache-resident
	pins bitset   // frame is inside a boot or declared pinned extent
	boot []Extent // one kernel's boot reservations (per audit)

	// zscratch holds one borrowed structural-check bitset per zone
	// index, so concurrently checked zones never share scratch words.
	zscratch [][]uint64

	// perVMA accumulates leaf pages per VMA for one process at a time;
	// it is tiny (VMAs, not frames) and reused across processes.
	perVMA map[*vma.VMA]uint64

	// errs and wg carry the parallel per-zone results; errs is indexed
	// by zone position so error selection is deterministic.
	errs []error
	wg   sync.WaitGroup
}

// NewAuditor returns an Auditor pre-sized to m's frame table. Campaigns
// that audit the same machine repeatedly should construct one and reuse
// it; a warm Auditor audits without touching the heap.
func NewAuditor(m *zone.Machine) *Auditor {
	a := &Auditor{}
	a.ensure(m)
	return a
}

// ensure grows the arena to cover m and clears the per-audit state.
func (a *Auditor) ensure(m *zone.Machine) {
	n := m.Frames.Len()
	a.base = m.Frames.Base()
	if uint64(len(a.refs)) < n {
		a.refs = make([]int32, n)
		words := (n + 63) / 64
		a.span = make(bitset, words)
		a.pins = make(bitset, words)
	}
	clear(a.refs)
	clear(a.span)
	clear(a.pins)
	if len(a.zscratch) < len(m.Zones) {
		a.zscratch = append(a.zscratch, make([][]uint64, len(m.Zones)-len(a.zscratch))...)
	}
	if len(a.errs) < len(m.Zones) {
		a.errs = make([]error, len(m.Zones))
	}
	if a.perVMA == nil {
		a.perVMA = make(map[*vma.VMA]uint64)
	}
}

// Audit is the single-kernel whole-machine audit; see the package-level
// Audit for the contract.
func (a *Auditor) Audit(k *osim.Kernel, pinned []Extent) error {
	return a.AuditKernels(k.Machine, []*osim.Kernel{k}, pinned)
}

// AuditKernels runs the deep cross-layer audit over m using this
// Auditor's arena; see the package-level AuditKernels for the contract.
//
// The pass structure is: (1) serially gather every software reference
// the kernels hold on physical frames into the flat refs/span arrays —
// per-process translation/VMA/RSS checks run inline here; (2) expand
// every kernel's boot reservation and the declared pinned extents into
// a bitset; (3) fan the per-zone work out across one goroutine per
// zone — buddy and contigmap structural invariants on borrowed
// scratch, then one merged linear pass over the zone's frame records
// folding the frame-state count, the free/pinned cross-checks, and
// the MapCount-vs-references sweep together. Zones are disjoint frame
// ranges and the gathered arrays are read-only by then, so the fan-out
// is race-free; errors are selected in zone-index order, keeping
// multi-error machines deterministic.
func (a *Auditor) AuditKernels(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	a.ensure(m)

	// Gather every reference the kernels' software structures hold on
	// physical frames: page-table leaves (the leaf head frame carries
	// one MapCount per referencing leaf; interior frames of a huge leaf
	// carry none but are spanned), and page-cache residency (the cache
	// owns one reference per cached page).
	for _, k := range ks {
		for _, p := range k.Processes() {
			if err := a.auditProcess(m, p); err != nil {
				return fmt.Errorf("process %d: %w", p.ID, err)
			}
		}
		k.Cache.VisitCached(func(_ *osim.File, _ uint64, pfn addr.PFN) {
			rel := uint64(pfn - a.base)
			a.refs[rel]++
			a.span.set(rel)
		})
	}

	// Pins: every kernel's own boot reservation, then the caller's
	// extents. Overlaps are harmless; the bitset holds their union.
	for _, k := range ks {
		a.boot = bootExtents(a.boot[:0], k)
		for _, e := range a.boot {
			a.pin(e, m)
		}
	}
	for _, e := range pinned {
		a.pin(e, m)
	}

	// Per-zone structural checks plus the merged frame sweep, fanned
	// out over the shard-disjoint zones.
	errs := a.errs[:len(m.Zones)]
	if len(m.Zones) == 1 {
		errs[0] = a.zoneCheck(m, m.Zones[0], 0)
	} else {
		a.wg.Add(len(m.Zones))
		for i, z := range m.Zones {
			go a.zoneWorker(m, z, i)
		}
		a.wg.Wait()
	}
	for i := range errs {
		if errs[i] != nil {
			err := errs[i]
			clear(errs)
			return err
		}
	}
	return nil
}

// bootExtents appends k's boot reservations to dst: the first
// k.BootBlocks() MAX_ORDER blocks of each zone of its machine.
func bootExtents(dst []Extent, k *osim.Kernel) []Extent {
	pages := uint64(k.BootBlocks()) * addr.MaxOrderPages
	if pages == 0 {
		return dst
	}
	for _, z := range k.Machine.Zones {
		dst = append(dst, Extent{PFN: uint64(z.Base), Pages: pages})
	}
	return dst
}

// pin marks e in the pins bitset. An extent is clamped to m's frame
// table: one outside it can never match a swept frame.
func (a *Auditor) pin(e Extent, m *zone.Machine) {
	lo, hi := e.PFN, e.PFN+e.Pages
	if base := uint64(a.base); lo < base {
		lo = base
	}
	if end := uint64(a.base) + m.Frames.Len(); hi > end {
		hi = end
	}
	if lo < hi {
		a.pins.setRange(lo-uint64(a.base), hi-lo)
	}
}

func (a *Auditor) zoneWorker(m *zone.Machine, z *zone.Zone, i int) {
	defer a.wg.Done()
	a.errs[i] = a.zoneCheck(m, z, i)
}

// zoneCheck runs one zone's layer-local structural invariants (buddy
// list structure and the contiguity map riding the MAX_ORDER lists) on
// borrowed scratch, then the merged linear pass over the zone's frame
// records: free-count agreement between the frame table and the buddy,
// MapCount vs gathered references, and the free/pinned cross-checks,
// in one cache-friendly sweep instead of three.
func (a *Auditor) zoneCheck(m *zone.Machine, z *zone.Zone, i int) error {
	if len(a.zscratch[i]) < z.Buddy.ScratchWords() {
		a.zscratch[i] = make([]uint64, z.Buddy.ScratchWords())
	}
	scratch := a.zscratch[i]
	if err := z.Buddy.CheckInvariantsScratch(scratch); err != nil {
		return fmt.Errorf("zone %d: buddy: %w", z.ID, err)
	}
	if err := z.Contig.CheckInvariantsScratch(z.Buddy, scratch); err != nil {
		return fmt.Errorf("zone %d: contigmap: %w", z.ID, err)
	}

	// Merged frame sweep: MapCount must equal the gathered reference
	// count exactly, free frames must be untouched by any structure,
	// and every allocated-but-unreferenced, unspanned frame must be a
	// declared pin — in both directions (a pinned frame that is free,
	// mapped, or spanned is equally a bug: a double free or a placement
	// policy handing out pinned memory).
	fs := m.Frames.Slice(z.Base, z.Pages)
	relBase := uint64(z.Base - a.base)
	var free uint64
	for j := range fs {
		rel := relBase + uint64(j)
		f := &fs[j]
		r := a.refs[rel]
		if f.MapCount != r {
			return fmt.Errorf("frame %d: MapCount %d but %d live references", z.Base+addr.PFN(j), f.MapCount, r)
		}
		switch f.State {
		case frame.Free:
			free++
			if r != 0 || a.span.get(rel) {
				return fmt.Errorf("frame %d: free but referenced by a mapping or the page cache", z.Base+addr.PFN(j))
			}
			if a.pins.get(rel) {
				return fmt.Errorf("frame %d: declared pinned but free (double free of a pin?)", z.Base+addr.PFN(j))
			}
		case frame.Allocated:
			orphan := r == 0 && !a.span.get(rel)
			if orphan && !a.pins.get(rel) {
				return fmt.Errorf("frame %d: allocated, unmapped, uncached, and not a declared pin (leaked frame)", z.Base+addr.PFN(j))
			}
			if !orphan && a.pins.get(rel) {
				return fmt.Errorf("frame %d: declared pinned but referenced by a mapping or the page cache", z.Base+addr.PFN(j))
			}
		case frame.Reserved:
			// Zone frames are only ever Free or Allocated (boot
			// reservations go through Buddy.Reserve, which
			// allocates); Reserved marks frames outside any zone.
			return fmt.Errorf("zone %d: frame in Reserved state inside a zone", z.ID)
		}
	}
	if free != z.Buddy.FreePages() {
		return fmt.Errorf("zone %d: frame table has %d free frames, buddy says %d", z.ID, free, z.Buddy.FreePages())
	}
	return nil
}

// auditProcess checks one process's translation/VMA/RSS accounting and
// accumulates its frame references into the arena. m is the union
// machine, which may be wider than the process's own kernel's view.
func (a *Auditor) auditProcess(m *zone.Machine, p *osim.Process) error {
	perVMA := a.perVMA
	clear(perVMA)
	tableLen := m.Frames.Len()
	var total uint64
	var bad error
	p.PT.Visit(func(l pagetable.Leaf) {
		total += l.Pages
		if !m.Frames.Contains(l.PTE.PFN) {
			if bad == nil {
				bad = fmt.Errorf("leaf %s maps PFN %d outside the machine", l.VA, l.PTE.PFN)
			}
			return
		}
		rel := uint64(l.PTE.PFN - a.base)
		a.refs[rel]++
		n := l.Pages
		if max := tableLen - rel; n > max {
			// A huge leaf overhanging the table end spans only the
			// frames that exist, matching the sweep's reach.
			n = max
		}
		a.span.setRange(rel, n)
		if bad != nil {
			return
		}
		v := p.VMAs.Find(l.VA)
		if v == nil {
			bad = fmt.Errorf("leaf %s mapped outside any VMA", l.VA)
			return
		}
		if end := l.VA.Add(l.Pages * addr.PageSize); end > v.End {
			bad = fmt.Errorf("leaf %s (%d pages) overhangs its VMA end %s", l.VA, l.Pages, v.End)
			return
		}
		perVMA[v] += l.Pages
	})
	if bad != nil {
		return bad
	}
	if total != p.PT.MappedPages() {
		return fmt.Errorf("leaf sweep counts %d pages, MappedPages says %d", total, p.PT.MappedPages())
	}
	if total != p.RSSPages {
		return fmt.Errorf("page table maps %d pages but RSS charges %d", total, p.RSSPages)
	}
	var vmaErr error
	p.VMAs.Visit(func(v *vma.VMA) {
		if vmaErr == nil && perVMA[v] != v.MappedPages {
			vmaErr = fmt.Errorf("VMA %s-%s: MappedPages %d but %d leaf pages inside it", v.Start, v.End, v.MappedPages, perVMA[v])
		}
		delete(perVMA, v)
	})
	if vmaErr != nil {
		return vmaErr
	}
	if len(perVMA) != 0 {
		return fmt.Errorf("%d leaf-bearing VMAs missing from the VMA set", len(perVMA))
	}
	return nil
}
