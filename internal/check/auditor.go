package check

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/mem/contigmap"
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
// The frame table must start on a multiple of 64 frames (zone.NewMachine
// starts it at PFN 0): zone bases are MAX_ORDER aligned, so every zone
// then begins on a bitset word boundary and the frame sweep can read
// span, pins and the buddy's coverage one aligned word at a time.
//
// An Auditor is NOT safe for concurrent use; each concurrent audit
// needs its own. The machine handed to successive audits may differ —
// the arena regrows to the largest frame table seen.
type Auditor struct {
	base addr.PFN // audited table's first PFN (per audit)
	refs []int32  // per-frame gathered reference counts
	span bitset   // frame is inside a page-table leaf's extent
	pins bitset   // frame is inside a boot or declared pinned extent
	boot []Extent // one kernel's boot reservations (per audit)

	// covered and contig hold one scratch bitset per zone index, so
	// concurrently checked zones never share words. covered receives
	// the buddy's listed coverage, which the frame sweep reads word by
	// word; the contigmap check gets its own bitset because it runs
	// while covered must still hold that coverage.
	covered [][]uint64
	contig  [][]uint64

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
	if a.base&63 != 0 {
		panic(fmt.Sprintf("check: frame table base %d is not a multiple of 64", a.base))
	}
	if uint64(len(a.refs)) < n {
		a.refs = make([]int32, n)
		words := (n + 63) / 64
		a.span = make(bitset, words)
		a.pins = make(bitset, words)
	}
	clear(a.refs)
	clear(a.span)
	clear(a.pins)
	if len(a.covered) < len(m.Zones) {
		a.covered = append(a.covered, make([][]uint64, len(m.Zones)-len(a.covered))...)
		a.contig = append(a.contig, make([][]uint64, len(m.Zones)-len(a.contig))...)
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
// per-process translation/VMA/RSS checks run inline here — and expand
// every kernel's boot reservation and the declared pinned extents into
// the pins bitset; (2) check each zone on its own goroutine (zone 0 on
// the caller's): the buddy's free lists, recording their coverage, then
// one pass over the zone's frame records and refs that decides 64
// frames per step with word operations — the buddy's coverage rule,
// MapCount against references, the free/pinned cross-checks and the
// free count — then the contigmap check. Zones are disjoint, word
// aligned frame ranges and the gathered arrays are read-only by then,
// so the fan-out is race-free; errors are selected in zone-index order,
// keeping multi-error machines deterministic.
func (a *Auditor) AuditKernels(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	if err := a.gather(m, ks, pinned); err != nil {
		return err
	}
	errs := a.errs[:len(m.Zones)]
	a.wg.Add(len(m.Zones) - 1)
	for i := 1; i < len(m.Zones); i++ {
		go a.zoneWorker(m, m.Zones[i], i)
	}
	errs[0] = a.zoneCheck(m, m.Zones[0], 0)
	a.wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			err := errs[i]
			clear(errs)
			return err
		}
	}
	return nil
}

// gather clears the arena for m, then records every reference the
// kernels' software structures hold on physical frames — page-table
// leaves (the leaf head frame carries one MapCount per referencing
// leaf; interior frames of a huge leaf carry none but are spanned) and
// page-cache residency (the cache owns one reference per cached page)
// — and every pinned frame: each kernel's own boot reservation, then
// the caller's extents. Overlapping pins are harmless; the bitset holds
// their union.
func (a *Auditor) gather(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	a.ensure(m)
	for _, k := range ks {
		for _, p := range k.Processes() {
			if err := a.auditProcess(m, p); err != nil {
				return fmt.Errorf("process %d: %w", p.ID, err)
			}
		}
		refs, base := a.refs, a.base
		k.Cache.VisitFiles(func(slots []addr.PFN) {
			for _, v := range slots {
				if v != 0 {
					refs[v-1-base]++
				}
			}
		})
	}
	for _, k := range ks {
		a.boot = bootExtents(a.boot[:0], k)
		for _, e := range a.boot {
			a.pin(e, m)
		}
	}
	for _, e := range pinned {
		a.pin(e, m)
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

// zoneCheck checks zone z (position i in m.Zones) against the gathered
// arrays. It reports the first failure in this order, each found at
// its lowest frame: the buddy's list structure (CheckLists); the
// buddy's coverage rule, that listed frames are exactly the Free ones;
// the contiguity map riding the MAX_ORDER lists; the per-frame
// accounting below; the frame table's free count against the buddy's.
//
// The frame pass reads each 64-frame word of records and refs once
// (wordMasks) and checks the accounting with word operations against
// the span and pins words: MapCount must equal the gathered reference
// count; a free frame must be unreferenced, unspanned and unpinned; an
// allocated frame must be a declared pin exactly when nothing
// references or spans it (a leak one way, a pin handed out the other);
// no frame may be Reserved. Only the first word that fails this test
// is rescanned frame by frame, for its exact error.
func (a *Auditor) zoneCheck(m *zone.Machine, z *zone.Zone, i int) error {
	words := z.Buddy.ScratchWords()
	if len(a.covered[i]) < words {
		a.covered[i] = make([]uint64, words)
	}
	covered := a.covered[i][:words]
	if err := z.Buddy.CheckLists(covered); err != nil {
		return fmt.Errorf("zone %d: buddy: %w", z.ID, err)
	}

	relBase := uint64(z.Base - a.base)
	fs := m.Frames.Slice(z.Base, z.Pages)
	refs := a.refs[relBase : relBase+z.Pages]
	span := a.span[relBase>>6:][:words]
	pins := a.pins[relBase>>6:][:words]
	var free uint64
	var accErr error
	for w, c := range covered {
		isFree, isRef, fails := wordMasks(fs[w<<6:w<<6+64], refs[w<<6:w<<6+64])
		if c != isFree {
			return fmt.Errorf("zone %d: buddy: %w", z.ID, z.Buddy.CoverageError(w, c, isFree))
		}
		free += uint64(bits.OnesCount64(isFree))
		// Frames outside the Free state count as allocated here: a
		// Reserved one already fails, and one in a state the checks
		// do not know can flag a word the rescan then clears.
		touched, pn := isRef|span[w], pins[w]
		if accErr == nil && fails|isFree&(touched|pn)|^isFree&^(touched^pn) != 0 {
			accErr = a.frameError(z, fs, relBase, w)
		}
	}

	if cw := contigmap.ScratchWords(z.Buddy); len(a.contig[i]) < cw {
		a.contig[i] = make([]uint64, cw)
	}
	if err := z.Contig.CheckInvariantsScratch(z.Buddy, a.contig[i]); err != nil {
		return fmt.Errorf("zone %d: contigmap: %w", z.ID, err)
	}
	if accErr != nil {
		return accErr
	}
	if free != z.Buddy.FreePages() {
		return fmt.Errorf("zone %d: frame table has %d free frames, buddy says %d", z.ID, free, z.Buddy.FreePages())
	}
	return nil
}

// frameError rescans word w of zone z one frame at a time, in the
// per-frame order of the checks, and returns the first failing frame's
// error, or nil if none fails. fs is the zone's frame records and
// relBase its offset in the arena.
func (a *Auditor) frameError(z *zone.Zone, fs []frame.Frame, relBase uint64, w int) error {
	for j := w << 6; j < w<<6+64; j++ {
		rel := relBase + uint64(j)
		pfn := z.Base + addr.PFN(j)
		f := &fs[j]
		r := a.refs[rel]
		if f.MapCount != r {
			return fmt.Errorf("frame %d: MapCount %d but %d live references", pfn, f.MapCount, r)
		}
		switch f.State {
		case frame.Free:
			if r != 0 || a.span.get(rel) {
				return fmt.Errorf("frame %d: free but referenced by a mapping or the page cache", pfn)
			}
			if a.pins.get(rel) {
				return fmt.Errorf("frame %d: declared pinned but free (double free of a pin?)", pfn)
			}
		case frame.Allocated:
			orphan := r == 0 && !a.span.get(rel)
			if orphan && !a.pins.get(rel) {
				return fmt.Errorf("frame %d: allocated, unmapped, uncached, and not a declared pin (leaked frame)", pfn)
			}
			if !orphan && a.pins.get(rel) {
				return fmt.Errorf("frame %d: declared pinned but referenced by a mapping or the page cache", pfn)
			}
		case frame.Reserved:
			// Zone frames are only ever Free or Allocated (boot
			// reservations go through Buddy.Reserve, which
			// allocates); Reserved marks frames outside any zone.
			return fmt.Errorf("zone %d: frame %d in Reserved state inside a zone", z.ID, pfn)
		}
	}
	return nil
}

// wordMasks reads one word's 64 frame records fw and gathered
// reference counts rw, and returns which frames are Free, which are
// referenced, and which fail outright because MapCount differs from
// the references or the state is Reserved. Bit k is frame k. Each mask
// is shifted right as a frame's bit enters at the top, so every shift
// is constant and the masks stay in registers.
func wordMasks(fw []frame.Frame, rw []int32) (isFree, isRef, fails uint64) {
	rw = rw[:len(fw)]
	for k := range fw {
		f, r := &fw[k], rw[k]
		isFree = isFree>>1 | b2u(f.State == frame.Free)<<63
		isRef = isRef>>1 | b2u(r != 0)<<63
		fails = fails>>1 | (b2u(f.MapCount != r)|b2u(f.State == frame.Reserved))<<63
	}
	return
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so the word sweep builds its masks without branches.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
