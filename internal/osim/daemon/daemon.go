// Package daemon implements the two asynchronous memory-management
// daemons the paper compares CA paging against:
//
//   - Ingens (Kwon et al., OSDI'16): utilisation-gated transparent huge
//     page promotion. The fault path maps 4 KiB pages only; a periodic
//     scan promotes huge-aligned regions whose utilisation crosses a
//     threshold, trading promotion latency for lower memory bloat.
//
//   - Translation Ranger (Yan et al., ISCA'19): contiguity-generating
//     defragmentation. A periodic scan migrates a bounded number of
//     pages per epoch toward per-VMA anchor regions, coalescing a
//     footprint *after* allocation — effective, but delayed, and each
//     migration costs copies and TLB shootdowns (Fig. 1c, Fig. 11).
//
// Both run on the kernel's logical clock: Maybe() fires an epoch when
// at least osim.DaemonPeriodNs nanoseconds have elapsed since the
// previous one.
package daemon

import (
	"sort"

	"repro/internal/mem/addr"
	"repro/internal/mem/contigmap"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
)

// fixpoint memoises "this daemon's last epoch changed nothing, and no
// input it reads has changed since". Every decision either daemon makes
// is a pure function of process state (VMAs, touch bitmaps, page
// tables — bracketed by Kernel.StateSeq) and the machine's free pool
// (bracketed by the buddy mutation counters), so an epoch at an
// unchanged key must repeat the previous epoch's no-op exactly and can
// be skipped outright. Epochs that migrated or promoted do not settle:
// they may be budget- or allocation-limited and must re-run.
type fixpoint struct {
	valid bool
	seq   uint64
	muts  uint64
}

func (f *fixpoint) settled(k *osim.Kernel) bool {
	return f.valid && f.seq == k.StateSeq() && f.muts == k.Machine.Mutations()
}

func (f *fixpoint) record(k *osim.Kernel, noop bool) {
	f.valid = noop
	f.seq = k.StateSeq()
	f.muts = k.Machine.Mutations()
}

// gate fires a daemon's epochs on the kernel's logical clock.
type gate struct{ lastRun uint64 }

// maybeN absorbs n consecutive polls issued across a run of
// non-faulting touches — observably identical to n single polls with
// no intervening simulator activity. The logical clock only moves
// through the daemon's own epochs during such a run, so the first poll
// that finds the gate closed proves every remaining poll is a no-op;
// an epoch that advances the clock past the period keeps the loop
// live, exactly as per-poll execution would. A traced epoch is a span
// of kind ev carrying how far *work grew.
func (g *gate) maybeN(k *osim.Kernel, n uint64, ev trace.Kind, work *uint64, epoch func()) {
	for ; n > 0 && k.Clock-g.lastRun >= osim.DaemonPeriodNs; n-- {
		g.lastRun = k.Clock
		tr := k.Tracer
		start := tr.Start()
		before := *work
		epoch()
		if tr != nil {
			tr.EmitSpan(ev, start, *work-before, 0, k.Clock)
			k.Machine.TraceDepths()
			tr.Sample()
		}
	}
}

// utilThreshold is the fraction of touched pages a 2 MiB region needs
// before Ingens promotes it (paper default 0.9).
const utilThreshold = 0.9

// Ingens is the asynchronous huge-page promotion daemon.
type Ingens struct {
	Kernel *osim.Kernel

	gate gate
	fp   fixpoint
}

// NewIngens creates the daemon and disables synchronous THP on the
// kernel: under Ingens the fault path allocates base pages only.
func NewIngens(k *osim.Kernel) *Ingens {
	k.THPEnabled = false
	return &Ingens{Kernel: k}
}

// Maybe runs a scan epoch if the period elapsed.
func (d *Ingens) Maybe() { d.MaybeN(1) }

// MaybeN absorbs n consecutive polls of a non-faulting run (gate.maybeN).
func (d *Ingens) MaybeN(n uint64) {
	d.gate.maybeN(d.Kernel, n, trace.EvIngensEpoch, &d.Kernel.Stats.Promotions, d.Scan)
}

// Scan promotes every eligible huge region of every process. A scan
// whose inputs are unchanged since a zero-promotion scan is skipped
// (see fixpoint); this keeps long settle phases O(1) per epoch once
// the address space stops changing.
func (d *Ingens) Scan() {
	if d.fp.settled(d.Kernel) {
		return
	}
	before := d.Kernel.Stats.Promotions
	for _, p := range d.Kernel.Processes() {
		p.VMAs.Visit(func(v *vma.VMA) {
			if v.Kind != vma.Anonymous {
				return
			}
			d.scanVMA(p, v)
		})
	}
	d.fp.record(d.Kernel, d.Kernel.Stats.Promotions == before)
}

func (d *Ingens) scanVMA(p *osim.Process, v *vma.VMA) {
	start := v.Start.HugeUp()
	for base := start; base.Add(addr.HugeSize) <= v.End; base = base.Add(addr.HugeSize) {
		pageIdx := uint64(base-v.Start) / addr.PageSize
		util := float64(v.RegionTouched(pageIdx, addr.HugePages)) / addr.HugePages
		if util < utilThreshold {
			continue
		}
		// Fully 4K-mapped? Promotion needs every page present, and a
		// region that is already huge is not 4K-mapped. The leaf
		// table's live count answers this in one descent.
		if !p.PT.HugeRegionFull4K(base) {
			continue
		}
		// CoW guard, as khugepaged's page_mapcount == 1 check: promote
		// copies into a fresh private block mapped Writable, which on a
		// CoW-shared region would silently break the sharing and grant
		// write access without the fault path's copy accounting. Skip
		// such regions until write faults resolve them. FlagRun with no
		// bits to set is a pure probe; the region is fully mapped, so a
		// short run can only mean a CoW leaf stopped it.
		if p.PT.FlagRun(base, addr.HugePages, 0, pagetable.CoW) < addr.HugePages {
			continue
		}
		d.promote(p, v, base)
	}
}

// promote replaces the region's 512 base mappings with one huge
// mapping, copying into a freshly allocated huge block. The scan's CoW
// guard ensures every replaced PTE is a private anonymous Writable
// mapping, so Writable is exactly the flag set the 4K leaves carried.
func (d *Ingens) promote(p *osim.Process, v *vma.VMA, base addr.VirtAddr) {
	k := d.Kernel
	dst, err := k.Machine.AllocBlock(p.HomeZone, addr.HugeOrder)
	if err != nil {
		return // no huge block available; skip
	}
	for off := uint64(0); off < addr.HugeSize; off += addr.PageSize {
		va := base.Add(off)
		pte, _, _ := p.PT.Unmap(va)
		f := k.Machine.Frames.Get(pte.PFN)
		f.MapCount--
		if f.MapCount <= 0 {
			k.Machine.FreeBlock(pte.PFN, 0)
		}
	}
	p.PT.Map2M(base, dst, pagetable.Writable)
	k.Machine.Frames.Get(dst).MapCount++
	k.Stats.Promotions++
	k.Stats.Migrations += addr.HugePages
	k.Stats.Shootdowns++
	k.Tick(addr.HugePages*osim.CopyPageNs + osim.ShootdownNs)
	if k.Tracer != nil {
		k.Tracer.Emit(trace.EvPromote, uint64(base), uint64(dst), k.Clock)
	}
}

// pagesPerEpoch bounds Ranger's migration work per epoch (rate
// limiting): one huge page per epoch — migration is not free.
const pagesPerEpoch = addr.HugePages

// Ranger is the Translation Ranger defragmentation daemon. On first
// scan of a VMA it chooses the VMA's plan and keeps it on the VMA
// (vma.VMA.Plan): the VMA is carved into segments assigned to the
// largest free clusters (largest-first), and pages migrate toward
// their segment targets across epochs.
type Ranger struct {
	Kernel *osim.Kernel

	// budget is the per-epoch migration budget: pagesPerEpoch, which
	// only the package's tests vary.
	budget uint64
	gate   gate
	fp     fixpoint
}

// rangerSegment maps VMA pages [startPage, startPage+pages) to the
// physical run starting at target.
type rangerSegment struct {
	startPage uint64
	pages     uint64
	target    addr.PFN
}

// rangerPlan is one VMA's plan and its watermark. A leaf is settled
// when no segment covers it or it already sits at its target. Every
// leaf that starts below mark is settled, so a walk from v.Start
// passes over them without migrating anything, and defragVMA starts
// its walk at mark instead. The one thing the walk does in that
// prefix is stop at a 2 MiB leaf when less than 512 pages of budget
// are left: hugeAt is the first 2 MiB leaf below mark, or v.End when
// there is none, so the resumed walk stops there too.
//
// Only a change to a leaf below mark can unsettle the prefix: the plan
// is fixed once chosen, and a leaf's state is its address and frame.
// The process's planWatch lowers mark to any leaf mapped, unmapped or
// redirected below it.
type rangerPlan struct {
	segs   []rangerSegment
	mark   addr.VirtAddr
	hugeAt addr.VirtAddr
}

// planWatch observes the page table of a process with plans. Plans
// live on their VMAs, so the watch is just its process: a comparable
// value that Table.AddObserver subscribes once per process. VAs are
// never reused within a process, so the VMA holding an event's va is
// the only one whose plan it can concern.
type planWatch struct{ p *osim.Process }

// lower moves the watermark of the plan on the VMA holding va down to
// va when va lies below it.
func (w planWatch) lower(va addr.VirtAddr) {
	if v := w.p.VMAs.Find(va); v != nil {
		if pl, ok := v.Plan.(*rangerPlan); ok && va < pl.mark {
			pl.mark = va
		}
	}
}

func (w planWatch) Mapped(va addr.VirtAddr, _ uint64)     { w.lower(va) }
func (w planWatch) Unmapped(va addr.VirtAddr, _ uint64)   { w.lower(va) }
func (w planWatch) Redirected(va addr.VirtAddr, _ uint64) { w.lower(va) }

// NewRanger creates the daemon with evaluation defaults.
func NewRanger(k *osim.Kernel) *Ranger {
	return &Ranger{Kernel: k, budget: pagesPerEpoch}
}

// Maybe runs a defragmentation epoch if the period elapsed.
func (d *Ranger) Maybe() { d.MaybeN(1) }

// MaybeN absorbs n consecutive polls of a non-faulting run (gate.maybeN).
func (d *Ranger) MaybeN(n uint64) {
	d.gate.maybeN(d.Kernel, n, trace.EvRangerEpoch, &d.Kernel.Stats.Migrations, d.Epoch)
}

// Epoch scans all processes and migrates up to pagesPerEpoch pages
// toward their anchors. Multi-programmed scans are serial — the
// behaviour the paper calls out as penalising Ranger's response time
// (Fig. 10).
func (d *Ranger) Epoch() {
	if d.fp.settled(d.Kernel) {
		return
	}
	before := d.Kernel.Stats.Migrations
	budget := d.budget
	for _, p := range d.Kernel.Processes() {
		if budget == 0 {
			break
		}
		p.VMAs.Visit(func(v *vma.VMA) {
			if v.Kind != vma.Anonymous || budget == 0 {
				return
			}
			budget = d.defragVMA(p, v, budget)
		})
	}
	// A migrating epoch is budget-limited, not converged: only an epoch
	// that moved nothing settles the memo.
	d.fp.record(d.Kernel, d.Kernel.Stats.Migrations == before)
}

// defragVMA migrates the VMA's mapped leaves toward its plan segments,
// returning the remaining budget. It walks from the plan's watermark
// and leaves the watermark at the first leaf the walk left unsettled.
func (d *Ranger) defragVMA(p *osim.Process, v *vma.VMA, budget uint64) uint64 {
	pl, _ := v.Plan.(*rangerPlan)
	if pl == nil {
		pl = d.newPlan(p, v)
	}
	if len(pl.segs) == 0 {
		return budget
	}
	if pl.hugeAt < pl.mark && budget < addr.HugePages {
		return 0 // a walk from v.Start stops at that settled huge leaf
	}
	mark, hugeAt := v.End, pl.hugeAt
	if hugeAt >= pl.mark {
		hugeAt = v.End
	}
	// Scan the VMA's leaves in place with a range-bounded walk: the only
	// mutation inside the loop is MigratePage, whose Redirect rewrites a
	// leaf's frame without adding or removing slots, so the in-order walk
	// stays well-defined and visits the exact leaf sequence the old
	// snapshot-then-act loop saw. Stopping at budget exhaustion (instead
	// of snapshotting the whole footprint first) and starting at the
	// watermark makes a rate-limited epoch O(budget) plus the leaves
	// still out of place, not O(footprint).
	p.PT.VisitRange(pl.mark, v.End, func(l pagetable.Leaf) bool {
		if budget < l.Pages {
			budget = 0
			mark = min(mark, l.VA)
			return false
		}
		page := uint64(l.VA-v.Start) / addr.PageSize
		if want, covered := planTarget(pl.segs, page); covered && l.PTE.PFN != want {
			if !d.migrate(p, l, want) {
				mark = min(mark, l.VA) // still out of place
				return true
			}
			budget -= l.Pages
		}
		// The leaf is settled now.
		if l.Pages == addr.HugePages && mark == v.End && hugeAt == v.End {
			hugeAt = l.VA
		}
		return true
	})
	pl.mark, pl.hugeAt = mark, hugeAt
	return budget
}

// migrate moves leaf l of p to want and reports whether it moved. The
// target slot must be free; Ranger iterates, so slots occupied by
// other pages of the VMA resolve in later epochs once those migrate
// away. (Real Ranger exchanges pages; the iterative
// converge-over-epochs behaviour is the same.)
func (d *Ranger) migrate(p *osim.Process, l pagetable.Leaf, want addr.PFN) bool {
	k := d.Kernel
	order := addr.LeafOrder(l.Pages)
	if err := k.Machine.AllocBlockAt(want, order); err != nil {
		return false
	}
	if !k.MigratePage(p, l.VA, want) {
		k.Machine.FreeBlock(want, order)
		return false
	}
	return true
}

// newPlan chooses v's plan, with its watermark at v.Start, keeps it on
// v, and subscribes p's watch to p's page-table events.
func (d *Ranger) newPlan(p *osim.Process, v *vma.VMA) *rangerPlan {
	pl := &rangerPlan{segs: d.choosePlan(p, v), mark: v.Start, hugeAt: v.End}
	v.Plan = pl
	p.PT.AddObserver(planWatch{p})
	return pl
}

// planTarget resolves the planned frame for a VMA page.
func planTarget(plan []rangerSegment, page uint64) (addr.PFN, bool) {
	for _, s := range plan {
		if page >= s.startPage && page < s.startPage+s.pages {
			return s.target + addr.PFN(page-s.startPage), true
		}
	}
	return 0, false
}

// choosePlan assigns the VMA's pages to the largest free clusters,
// largest first — Ranger packs the footprint as tightly as free
// contiguity allows, which is why it leads the 32-mapping coverage
// under memory pressure (§VI-A).
func (d *Ranger) choosePlan(p *osim.Process, v *vma.VMA) []rangerSegment {
	type free struct {
		start addr.PFN
		pages uint64
	}
	var clusters []free
	for _, z := range d.Kernel.Machine.Zones {
		z.Contig.Visit(func(c *contigmap.Cluster) {
			clusters = append(clusters, free{c.Start, c.Pages()})
		})
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].pages > clusters[j].pages })
	var plan []rangerSegment
	page := uint64(0)
	remaining := v.Pages()
	for _, c := range clusters {
		if remaining == 0 {
			break
		}
		take := c.pages
		if take > remaining {
			take = remaining
		}
		plan = append(plan, rangerSegment{startPage: page, pages: take, target: c.start})
		page += take
		remaining -= take
	}
	if len(plan) == 0 {
		// No free clusters: leave the footprint where it is.
		if pa, ok := p.PT.Translate(v.Start); ok {
			plan = append(plan, rangerSegment{startPage: 0, pages: v.Pages(), target: pa.Frame()})
		}
	}
	return plan
}
