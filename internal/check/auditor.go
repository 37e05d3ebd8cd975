package check

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// The gathered references cost one bit per frame: seen marks every
// frame holding at least one, and the rare references after a frame's
// first (CoW-shared pages after a fork, file pages both cached and
// mapped) are listed in dups, with multi marking the 64-frame words
// that hold such a frame. refCount recovers a frame's exact count.
//
// The frame table must start on a multiple of 64 frames (zone.NewMachine
// starts it at PFN 0): zone bases are MAX_ORDER aligned, so every zone
// then begins on a bitset word boundary and the frame sweep can read
// seen, span, pins and the buddy's coverage one aligned word at a time.
//
// An Auditor is NOT safe for concurrent use; each concurrent audit
// needs its own. The machine handed to successive audits may differ —
// the arena regrows to the largest frame table seen.
type Auditor struct {
	// Fanout, when set, runs the per-zone checks: fn(i) for every zone
	// position i, returning the lowest-index error (shard.Set hands in
	// its team). Nil checks the zones on the caller, in order.
	Fanout func(n int, fn func(i int) error) error

	base  addr.PFN // audited table's first PFN (per audit)
	seen  bitset   // frame holds at least one gathered reference
	dups  []uint32 // arena offset of each reference after a frame's first, sorted
	multi bitset   // one bit per 64-frame word: the word holds a frame in dups
	span  bitset   // frame is inside a page-table leaf's extent
	pins  bitset   // frame is inside a boot or declared pinned extent
	boot  []Extent // one kernel's boot reservations (per audit)

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
	if n > math.MaxUint32+1 {
		panic(fmt.Sprintf("check: frame table of %d frames overflows the arena's 32-bit offsets", n))
	}
	if words := (n + 63) / 64; uint64(len(a.seen)) < words {
		a.seen = make(bitset, words)
		a.multi = make(bitset, (words+63)/64)
		a.span = make(bitset, words)
		a.pins = make(bitset, words)
	}
	clear(a.seen)
	a.dups = a.dups[:0]
	clear(a.multi)
	clear(a.span)
	clear(a.pins)
	if len(a.covered) < len(m.Zones) {
		a.covered = append(a.covered, make([][]uint64, len(m.Zones)-len(a.covered))...)
		a.contig = append(a.contig, make([][]uint64, len(m.Zones)-len(a.contig))...)
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
// the kernels hold on physical frames into the seen/dups/multi and span
// arrays — per-process translation/VMA/RSS checks run inline here —
// and expand every kernel's boot reservation and the declared pinned
// extents into the pins bitset; (2) check each zone, through Fanout
// when set: the buddy's free lists, recording their coverage, then one
// pass over the zone's frame records that settles 64 frames per step
// with word operations — the buddy's coverage rule, MapCount against
// references, the free/pinned cross-checks and the free count — then
// the contigmap check. Zones are disjoint, word aligned frame ranges
// and the gathered arrays are read-only by then, so zones can be
// checked concurrently; the lowest zone's error wins either way,
// keeping multi-error machines deterministic.
func (a *Auditor) AuditKernels(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	if err := a.gather(m, ks, pinned); err != nil {
		return err
	}
	if a.Fanout != nil {
		return a.Fanout(len(m.Zones), func(i int) error { return a.zoneCheck(m, m.Zones[i], i) })
	}
	for i, z := range m.Zones {
		if err := a.zoneCheck(m, z, i); err != nil {
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
		k.Cache.VisitFiles(a.refSlots)
	}
	a.indexDups()
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

// refSlots records the page cache's reference on every resident frame
// of one file: slots[i] is a frame plus one, 0 when not resident. A
// file is mostly cached in runs of consecutive frames, so refSlots
// finds each run and records it a word at a time. Setting one bit
// per slot instead chains each slot's read-modify-write of its seen
// word to the previous slot's. A run is extended four slots at a time
// while all four continue it, then one slot at a time.
func (a *Auditor) refSlots(slots []addr.PFN) {
	off := a.base + 1
	for i := 0; i < len(slots); {
		v := slots[i]
		if v == 0 {
			i++
			continue
		}
		// Slot j continues the run exactly when it holds b + j.
		b, j := v-addr.PFN(i), i+1
		for ; j+4 <= len(slots); j += 4 {
			s, e := slots[j:j+4:j+4], b+addr.PFN(j)
			if (s[0]-e)|(s[1]-e-1)|(s[2]-e-2)|(s[3]-e-3) != 0 {
				break
			}
		}
		for j < len(slots) && slots[j] == b+addr.PFN(j) {
			j++
		}
		a.refRun(uint64(v-off), uint64(j-i))
		i = j
	}
}

// refRun records one reference on each of the n frames from arena
// offset rel, one seen word at a time: a frame whose seen bit is
// already set is listed in dups.
func (a *Auditor) refRun(rel, n uint64) {
	for n > 0 {
		w, k := rel>>6, rel&63
		c := min(n, 64-k)
		m := ^uint64(0) >> (64 - c) << k
		for d := a.seen[w] & m; d != 0; d &= d - 1 {
			a.dups = append(a.dups, uint32(w<<6|uint64(bits.TrailingZeros64(d))))
		}
		a.seen[w] |= m
		rel += c
		n -= c
	}
}

// indexDups ends the gather: it sorts dups, so a frame's extra
// references sit together and a zone's in one run, and marks their
// words in multi.
func (a *Auditor) indexDups() {
	slices.Sort(a.dups)
	for _, d := range a.dups {
		a.multi.set(uint64(d >> 6))
	}
}

// refCount returns the number of references gathered on the frame at
// arena offset rel.
func (a *Auditor) refCount(rel uint64) int32 {
	if !a.seen.get(rel) {
		return 0
	}
	if !a.multi.get(rel >> 6) {
		return 1
	}
	i, _ := slices.BinarySearch(a.dups, uint32(rel))
	n := int32(1)
	for ; i < len(a.dups) && uint64(a.dups[i]) == rel; i++ {
		n++
	}
	return n
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

// zoneCheck checks zone z (position i in m.Zones) against the gathered
// arrays. It reports the first failure in this order, each found at
// its lowest frame: the buddy's list structure (CheckLists); the
// buddy's coverage rule, that listed frames are exactly the Free ones;
// the contiguity map riding the MAX_ORDER lists; the per-frame
// accounting below; the frame table's free count against the buddy's.
//
// The per-frame accounting is: MapCount must equal the gathered
// reference count; a free frame must be unreferenced, unspanned and
// unpinned; an allocated frame must be a declared pin exactly when
// nothing references or spans it (a leak one way, a pin handed out the
// other); no frame may be Reserved. The frame pass folds each 64-frame
// word of records into the OR and AND of the records (frame.Fold) and
// settles most words from the states and MapCounts of those two
// summaries and the seen, span and pins words:
//   - every frame Free: no MapCount, and nothing seen, spanned or
//     pinned;
//   - every frame Allocated, none or all seen, no duplicate
//     references: every MapCount is 0 if none is seen and 1 if all
//     are, and each frame is either touched (seen or spanned) or
//     pinned, never both.
//
// Any other word gets per-frame masks (wordMasks) against the seen
// bits, corrected to exact counts for the frames listed in dups when
// multi marks the word. Only the first word that fails is rescanned
// frame by frame, for its exact error.
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
	seen := a.seen[relBase>>6:][:words]
	span := a.span[relBase>>6:][:words]
	pins := a.pins[relBase>>6:][:words]
	var free uint64
	var accErr error
	for w, c := range covered {
		fw := (*[64]frame.Frame)(fs[w<<6:])
		sw, pn := seen[w], pins[w]
		touched := sw | span[w]
		multi := a.multi.get(relBase>>6 + uint64(w))
		or, and := frame.Fold(fw)
		var isFree uint64
		var ok bool
		switch {
		case or.State == frame.Free:
			isFree = ^uint64(0)
			ok = or.MapCount == 0 && touched|pn == 0
		case or.State == frame.Allocated && and.State == frame.Allocated && !multi && (sw == 0 || sw == ^uint64(0)):
			want := int32(sw & 1)
			ok = or.MapCount == want && and.MapCount == want && touched^pn == ^uint64(0)
		default:
			var fails uint64
			isFree, fails = wordMasks(fw, sw)
			if multi {
				fails = a.exactFails(fw, fails, relBase+uint64(w)<<6)
			}
			// Frames outside the Free state count as allocated here:
			// a Reserved one already fails, and one in a state the
			// checks do not know can flag a word the rescan then
			// clears.
			ok = fails|isFree&(touched|pn)|^isFree&^(touched^pn) == 0
		}
		if c != isFree {
			return fmt.Errorf("zone %d: buddy: %w", z.ID, z.Buddy.CoverageError(w, c, isFree))
		}
		free += uint64(bits.OnesCount64(isFree))
		if accErr == nil && !ok {
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
		r := a.refCount(rel)
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

// wordMasks reads one word's 64 frame records fw against its seen word
// and returns which frames are Free and which fail outright because
// MapCount differs from the seen bit (the count, unless the word holds
// duplicate references) or the state is Reserved. Bit k is frame k.
// Each mask is shifted right as a frame's bit enters at the top, so
// every shift is constant and the masks stay in registers.
func wordMasks(fw *[64]frame.Frame, seen uint64) (isFree, fails uint64) {
	for k := range fw {
		f, r := &fw[k], int32(seen&1)
		seen >>= 1
		isFree = isFree>>1 | b2u(f.State == frame.Free)<<63
		fails = fails>>1 | (b2u(f.MapCount != r)|b2u(f.State == frame.Reserved))<<63
	}
	return
}

// exactFails redoes the fails bit of every frame in the word at arena
// offset rel that holds duplicate references, against its exact count.
func (a *Auditor) exactFails(fw *[64]frame.Frame, fails, rel uint64) uint64 {
	i, _ := slices.BinarySearch(a.dups, uint32(rel))
	for i < len(a.dups) && uint64(a.dups[i]) < rel+64 {
		d, n := a.dups[i], int32(1)
		for ; i < len(a.dups) && a.dups[i] == d; i++ {
			n++
		}
		k := uint64(d) - rel
		f := &fw[k]
		fails = fails&^(1<<k) | (b2u(f.MapCount != n)|b2u(f.State == frame.Reserved))<<k
	}
	return fails
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
// records its frame references in the arena. m is the union
// machine, which may be wider than the process's own kernel's view.
func (a *Auditor) auditProcess(m *zone.Machine, p *osim.Process) error {
	perVMA := a.perVMA
	clear(perVMA)
	tableLen := m.Frames.Len()
	var total uint64
	var bad error
	// Leaves come in ascending VA order and VMAs do not overlap, so
	// each VMA's leaves form one run: the VMA is looked up when a leaf
	// leaves the current one's [Start, End), and the run's pages are
	// added to perVMA when it ends.
	var cur *vma.VMA
	var run uint64
	p.PT.Visit(func(l pagetable.Leaf) {
		total += l.Pages
		if !m.Frames.Contains(l.PTE.PFN) {
			if bad == nil {
				bad = fmt.Errorf("leaf %s maps PFN %d outside the machine", l.VA, l.PTE.PFN)
			}
			return
		}
		rel := uint64(l.PTE.PFN - a.base)
		a.refRun(rel, 1)
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
		if cur == nil || !cur.Contains(l.VA) {
			if cur != nil {
				perVMA[cur] += run
			}
			cur, run = p.VMAs.Find(l.VA), 0
			if cur == nil {
				bad = fmt.Errorf("leaf %s mapped outside any VMA", l.VA)
				return
			}
		}
		if end := l.VA.Add(l.Pages * addr.PageSize); end > cur.End {
			bad = fmt.Errorf("leaf %s (%d pages) overhangs its VMA end %s", l.VA, l.Pages, cur.End)
			return
		}
		run += l.Pages
	})
	if bad != nil {
		return bad
	}
	if cur != nil {
		perVMA[cur] += run
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
