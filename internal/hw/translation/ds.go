package translation

import (
	"repro/internal/hw/ds"
	"repro/internal/mem/addr"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// dsBackend runs Direct Segments as the primary mechanism: one
// hardware segment translates its covered span by pure base+offset —
// no TLB fill, no walk — and everything outside it pays the normal
// paged path. Where sim's scheme emulation sizes a segment over the
// whole virtual extent (coverage accounting only), this backend must
// return real physical addresses, so the segment is the largest
// single contiguous mapping: every address inside it translates
// exactly, matching what DS hardware backed by an eagerly reserved
// extent would serve. Mapping churn dirties the segment; the next
// probe rebuilds it.
type dsBackend struct {
	core
	seg   *ds.Segment
	watch *mapWatch

	// Rebuilds counts segment reconstructions (tests).
	Rebuilds uint64
}

func (b *dsBackend) init(c core) {
	*b = dsBackend{
		core:  c,
		seg:   largestSegment(c.env.Mappings()),
		watch: watchTables(c.env),
	}
}

func (b *dsBackend) Reset(env *workloads.Env) { b.init(b.reset(env)) }

// largestSegment picks the biggest contiguous mapping as the segment —
// the extent an eager reservation would have pinned.
func largestSegment(ms []metrics.Mapping) *ds.Segment {
	best := -1
	for i := range ms {
		if best < 0 || ms[i].Pages > ms[best].Pages {
			best = i
		}
	}
	if best < 0 {
		return ds.NewSegment(0, 0, 0)
	}
	m := ms[best]
	return ds.NewSegment(m.VA, m.Pages*uint64(addr.PageSize), m.Offset())
}

func (b *dsBackend) Name() string { return BackendDS }

func (b *dsBackend) sync() {
	if !b.watch.dirty {
		return
	}
	b.watch.dirty = false
	b.seg = largestSegment(b.env.Mappings())
	b.Rebuilds++
}

// Lookup probes TLB and segment in parallel, like the hardware: the
// segment's base+offset check is itself the translation, so a covered
// access is a hit even on TLB miss, and never fills the TLB. The TLB
// probe runs unconditionally — its miss accounting (and trace events)
// reflect every access the paged structures saw go by.
func (b *dsBackend) Lookup(va addr.VirtAddr) bool {
	b.cnt.Lookups++
	b.sync()
	if b.tlb.Lookup(va) || b.seg.Covers(va) {
		b.cnt.Hits++
		return true
	}
	b.cnt.Misses++
	return false
}

// LookupRun is Lookup over a run with one sync at its start: mappings
// change only on the loop's fault path, which no run contains. Each
// access still probes the TLB in full, miss accounting included.
func (b *dsBackend) LookupRun(accs []workloads.Access) int {
	b.sync()
	for i := range accs {
		if va := accs[i].VA; !b.tlb.Lookup(va) && !b.seg.Covers(va) {
			b.cnt.Lookups += uint64(i) + 1
			b.cnt.Hits += uint64(i)
			b.cnt.Misses++
			return i
		}
	}
	b.cnt.Lookups += uint64(len(accs))
	b.cnt.Hits += uint64(len(accs))
	return len(accs)
}

func (b *dsBackend) Translate(va addr.VirtAddr) Walk {
	b.sync()
	if b.seg.Covers(va) {
		// Reachable only through a direct Translate (the loop's Lookup
		// already serves covered addresses); priced like the hit it is.
		return Walk{HPA: b.seg.Offset.Target(va), OK: true}
	}
	return b.walk(va, b.wm)
}

// Insert fills the TLB only outside the segment: segment accesses
// bypass the TLB.
func (b *dsBackend) Insert(va addr.VirtAddr, w Walk) {
	if !b.seg.Covers(va) {
		b.core.Insert(va, w)
	}
}

// Resolve mirrors Lookup/Translate without mutating: segment targets
// while the segment is known-fresh, an untraced radix walk otherwise.
func (b *dsBackend) Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool) {
	if !b.watch.dirty && b.seg.Covers(va) {
		return b.seg.Offset.Target(va), 0, true
	}
	return b.core.Resolve(va)
}

func (b *dsBackend) Close() { b.watch.close() }
