package pagetable

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
)

func TestMap4KWalkRoundTrip(t *testing.T) {
	pt := New()
	va := addr.VirtAddr(0x7f12_3456_7000)
	pt.Map4K(va, 1234, Writable)
	pte, level, steps, ok := pt.Walk(va)
	if !ok || level != 0 || pte.PFN != 1234 {
		t.Fatalf("Walk = (%+v, %d, ok=%v)", pte, level, ok)
	}
	if steps != 4 {
		t.Fatalf("4K walk steps = %d, want 4", steps)
	}
	if !pte.Flags.Has(Present | Writable) {
		t.Fatal("flags lost")
	}
	if pt.Mapped4K() != 1 {
		t.Fatal("counter")
	}
	// Neighbouring page unmapped.
	if _, _, _, ok := pt.Walk(va + addr.PageSize); ok {
		t.Fatal("neighbour should be unmapped")
	}
}

func TestMap2MWalk(t *testing.T) {
	pt := New()
	va := addr.VirtAddr(0x40000000) // 2M aligned
	pt.Map2M(va, 512, Writable)
	pte, level, steps, ok := pt.Walk(va + 0x12345) // interior offset
	if !ok || level != HugeLevel || pte.PFN != 512 {
		t.Fatalf("Walk = (%+v, %d, %v)", pte, level, ok)
	}
	if steps != 3 {
		t.Fatalf("2M walk steps = %d, want 3", steps)
	}
	if pt.Mapped2M() != 1 || pt.MappedPages() != 512 {
		t.Fatal("counters")
	}
}

func TestTranslateOffsets(t *testing.T) {
	pt := New()
	pt.Map4K(0x1000, 7, 0)
	pa, ok := pt.Translate(0x1abc)
	if !ok || pa != 7*addr.PageSize+0xabc {
		t.Fatalf("Translate = (%v, %v)", pa, ok)
	}
	pt.Map2M(addr.VirtAddr(4*addr.HugeSize), 1024, 0)
	pa, ok = pt.Translate(addr.VirtAddr(4*addr.HugeSize) + 0x54321)
	if !ok || pa != 1024*addr.PageSize+0x54321 {
		t.Fatalf("huge Translate = (%v, %v)", pa, ok)
	}
	if _, ok := pt.Translate(0xdead000); ok {
		t.Fatal("unmapped translate should fail")
	}
}

func TestDoubleMapPanics(t *testing.T) {
	pt := New()
	pt.Map4K(0x1000, 1, 0)
	assertPanics(t, func() { pt.Map4K(0x1000, 2, 0) })
	pt.Map2M(addr.VirtAddr(addr.HugeSize), 512, 0)
	assertPanics(t, func() { pt.Map2M(addr.VirtAddr(addr.HugeSize), 1024, 0) })
	// 4K under an existing huge mapping.
	assertPanics(t, func() { pt.Map4K(addr.VirtAddr(addr.HugeSize)+addr.PageSize, 3, 0) })
	// Unaligned.
	assertPanics(t, func() { pt.Map4K(0x1001, 1, 0) })
	assertPanics(t, func() { pt.Map2M(addr.VirtAddr(addr.PageSize), 512, 0) })
	assertPanics(t, func() { pt.Map2M(addr.VirtAddr(2*addr.HugeSize), 3, 0) }) // unaligned PFN
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestUnmap(t *testing.T) {
	pt := New()
	pt.Map4K(0x1000, 9, Contig)
	if pt.ContigBits != 1 {
		t.Fatal("contig counter")
	}
	e, pages, ok := pt.Unmap(0x1000)
	if !ok || e.PFN != 9 || pages != 1 {
		t.Fatalf("Unmap = (%+v, %d, %v)", e, pages, ok)
	}
	if pt.Mapped4K() != 0 || pt.ContigBits != 0 {
		t.Fatal("counters after unmap")
	}
	if _, _, ok := pt.Unmap(0x1000); ok {
		t.Fatal("double unmap should fail")
	}
	// Re-map after unmap works.
	pt.Map4K(0x1000, 11, 0)
	if pa, ok := pt.Translate(0x1000); !ok || pa != 11*addr.PageSize {
		t.Fatal("remap failed")
	}
}

func TestLookupAndSetContig(t *testing.T) {
	pt := New()
	pt.Map4K(0x2000, 5, 0)
	pte, pages, ok := pt.Lookup(0x2000)
	if !ok || pages != 1 || pte.PFN != 5 {
		t.Fatal("Lookup 4K failed")
	}
	if !pt.SetContig(0x2000, true) || pt.ContigBits != 1 {
		t.Fatal("SetContig on")
	}
	// Idempotent.
	pt.SetContig(0x2000, true)
	if pt.ContigBits != 1 {
		t.Fatal("SetContig should be idempotent")
	}
	pt.SetContig(0x2000, false)
	if pt.ContigBits != 0 {
		t.Fatal("SetContig off")
	}
	if pt.SetContig(0x999000, true) {
		t.Fatal("SetContig on unmapped should fail")
	}
	// Huge lookup returns 512 pages.
	pt.Map2M(addr.VirtAddr(8*addr.HugeSize), 2048, 0)
	if _, pages, ok := pt.Lookup(addr.VirtAddr(8*addr.HugeSize) + 12345); !ok || pages != 512 {
		t.Fatal("Lookup huge failed")
	}
}

func TestVisitOrderAndCompleteness(t *testing.T) {
	pt := New()
	vas := []addr.VirtAddr{0x7000_0000_0000, 0x1000, 0x5000_0000, addr.VirtAddr(3 * addr.HugeSize)}
	pt.Map4K(vas[0], 1, 0)
	pt.Map4K(vas[1], 2, 0)
	pt.Map4K(vas[2], 3, 0)
	pt.Map2M(vas[3], 512, 0)
	var got []Leaf
	pt.Visit(func(l Leaf) { got = append(got, l) })
	if len(got) != 4 {
		t.Fatalf("visited %d leaves", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].VA <= got[i-1].VA {
			t.Fatal("Visit not in ascending VA order")
		}
	}
	// The huge leaf reports 512 pages.
	for _, l := range got {
		if l.VA == vas[3] && l.Pages != 512 {
			t.Fatal("huge leaf pages wrong")
		}
	}
}

func TestRandomMapUnmapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		ref := make(map[addr.VirtAddr]addr.PFN) // 4K ground truth
		for step := 0; step < 500; step++ {
			va := addr.VirtAddr(rng.Intn(1<<20)) << addr.PageShift
			if _, mapped := ref[va]; !mapped && rng.Intn(3) > 0 {
				pfn := addr.PFN(rng.Intn(1 << 24))
				pt.Map4K(va, pfn, Writable)
				ref[va] = pfn
			} else if mapped {
				pt.Unmap(va)
				delete(ref, va)
			}
		}
		if pt.Mapped4K() != uint64(len(ref)) {
			return false
		}
		for va, pfn := range ref {
			pa, ok := pt.Translate(va)
			if !ok || pa != pfn.Addr() {
				return false
			}
		}
		n := 0
		pt.Visit(func(Leaf) { n++ })
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWalk(b *testing.B) {
	pt := New()
	for i := 0; i < 4096; i++ {
		pt.Map4K(addr.VirtAddr(i)<<addr.PageShift, addr.PFN(i), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(addr.VirtAddr(i%4096) << addr.PageShift)
	}
}

// recObserver records every mapping event for assertion.
type recObserver struct {
	events []string
}

func (r *recObserver) Mapped(va addr.VirtAddr, pages uint64) {
	r.events = append(r.events, fmt.Sprintf("map %v %d", va, pages))
}
func (r *recObserver) Unmapped(va addr.VirtAddr, pages uint64) {
	r.events = append(r.events, fmt.Sprintf("unmap %v %d", va, pages))
}
func (r *recObserver) Redirected(va addr.VirtAddr, pages uint64) {
	r.events = append(r.events, fmt.Sprintf("redirect %v %d", va, pages))
}

// TestObserverEvents pins the mapping-event contract translation
// backends rely on for exact invalidation: every PA-changing mutation
// fires with the leaf base and extent; flag-only mutations (SetContig)
// and failed mutations fire nothing; RemoveObserver silences a
// subscriber without disturbing the others.
func TestObserverEvents(t *testing.T) {
	pt := New()
	rec := &recObserver{}
	other := &recObserver{}
	pt.AddObserver(rec)
	pt.AddObserver(other)

	huge := addr.VirtAddr(addr.HugeSize)
	pt.Map4K(0x1000, 7, 0)
	pt.Map2M(huge, 512, 0)
	pt.SetContig(0x1000, true)    // flag-only: no event
	if !pt.Redirect(0x1800, 99) { // mid-page VA: event carries the page base
		t.Fatal("Redirect failed")
	}
	pt.Redirect(0xdead000, 1) // unmapped: no event
	pt.Unmap(huge + 0x3000)   // mid-huge-leaf VA: event carries the 2M base
	pt.Unmap(0x1000)
	pt.Unmap(0x1000) // already gone: no event

	want := []string{
		"map v0x1000 1",
		"map v0x200000 512",
		"redirect v0x1000 1",
		"unmap v0x200000 512",
		"unmap v0x1000 1",
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events = %q, want %q", rec.events, want)
	}
	if !reflect.DeepEqual(other.events, want) {
		t.Fatalf("second observer diverged: %q", other.events)
	}

	pt.RemoveObserver(rec)
	pt.Map4K(0x5000, 8, 0)
	if len(rec.events) != len(want) {
		t.Fatal("removed observer still receiving events")
	}
	if len(other.events) != len(want)+1 {
		t.Fatal("remaining observer stopped receiving events")
	}
	pt.RemoveObserver(rec) // double remove is a no-op
}

// mixedTops are the PGD slots randomMixedTable fills, 4 GiB under each.
var mixedTops = []addr.VirtAddr{0, 1 << 39}

// randomMixedTable fills a table of the given depth with 4 KiB and
// 2 MiB leaves, some carrying the Contig bit, spread over 2 MiB regions
// that sit under different PT, PMD, PUD, and PGD slots.
func randomMixedTable(rng *rand.Rand, levels int) *Table {
	pt := NewWithLevels(levels, new(Pool))
	for _, top := range mixedTops {
		for r := 0; r < 24; r++ {
			base := top + addr.VirtAddr(rng.Intn(4))<<30 + addr.VirtAddr(rng.Intn(8))*addr.HugeSize
			if !pt.HugeRegionEmpty(base) {
				continue
			}
			flags := Writable
			if rng.Intn(3) == 0 {
				flags |= Contig
			}
			if rng.Intn(3) == 0 {
				pt.Map2M(base, addr.PFN(rng.Intn(1<<12))*addr.HugePages, flags)
				continue
			}
			for p := 0; p < addr.HugePages; p++ {
				if rng.Intn(4) == 0 {
					va := base + addr.VirtAddr(p)*addr.PageSize
					pt.Map4K(va, addr.PFN(rng.Intn(1<<24)), flags)
				}
			}
		}
	}
	return pt
}

// nodes returns every node reachable from the table's root, root first.
func (t *Table) nodes() []*node {
	var out []*node
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		out = append(out, n)
		if level == 0 {
			return
		}
		for _, c := range n.children {
			if c != nil {
				walk(c, level-1)
			}
		}
	}
	walk(t.root, t.top)
	return out
}

// unmapPerPage is the per-page teardown UnmapRange replaces: Unmap
// every page of [lo, hi), skipping to the end of each removed leaf. It
// steps over empty 2 MiB regions whole, where every per-page Unmap
// would fail, to keep windows spanning PGD slots cheap.
func unmapPerPage(pt *Table, lo, hi addr.VirtAddr) []Leaf {
	var out []Leaf
	for va := lo; va < hi; {
		if pt.HugeRegionEmpty(va) {
			va = va.HugeDown().Add(addr.HugeSize)
			continue
		}
		e, pages, ok := pt.Unmap(va)
		if !ok {
			va += addr.PageSize
			continue
		}
		base := va.PageDown()
		if pages == addr.HugePages {
			base = va.HugeDown()
		}
		out = append(out, Leaf{VA: base, PTE: e, Pages: pages})
		va = base.Add(pages * addr.PageSize)
	}
	return out
}

// TestUnmapRangeMatchesPerPageUnmap pins UnmapRange to the per-page
// Unmap loop over the same window, on twin tables built from one seed:
// same removed leaves in the same order, same observer events, same
// counters, same surviving leaves. The range form also
// hands every emptied table to the pool and loses no node.
func TestUnmapRangeMatchesPerPageUnmap(t *testing.T) {
	const span = 1<<39 + 4<<30 // covers every leaf randomMixedTable maps
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := 4 + rng.Intn(2)
		build := rng.Int63()
		ref := randomMixedTable(rand.New(rand.NewSource(build)), levels)
		got := randomMixedTable(rand.New(rand.NewSource(build)), levels)
		refObs, gotObs := &recObserver{}, &recObserver{}
		ref.AddObserver(refObs)
		got.AddObserver(gotObs)

		// A window starts anywhere in a filled 4 GiB or inside a mapped
		// leaf, and runs for up to 4 GiB, or past the other PGD slot,
		// or covers the whole table.
		pages := func(bytes int64) addr.VirtAddr {
			return addr.VirtAddr(rng.Int63n(bytes>>addr.PageShift)) << addr.PageShift
		}
		lo := mixedTops[rng.Intn(len(mixedTops))] + pages(4<<30)
		var leaves []Leaf
		got.Visit(func(l Leaf) { leaves = append(leaves, l) })
		if len(leaves) > 0 && rng.Intn(2) == 0 {
			l := leaves[rng.Intn(len(leaves))]
			lo = l.VA + pages(int64(l.Pages*addr.PageSize))
		}
		hi := lo + pages(4<<30)
		switch rng.Intn(4) {
		case 0:
			hi = lo + pages(span)
		case 1:
			lo, hi = 0, span
		}

		before := len(got.nodes()) + got.pool.Len()
		want := unmapPerPage(ref, lo, hi)
		var have []Leaf
		got.UnmapRange(lo, hi, func(l Leaf) { have = append(have, l) })

		if !reflect.DeepEqual(have, want) {
			t.Logf("seed %d [%v,%v): removed %d leaves, want %d", seed, lo, hi, len(have), len(want))
			return false
		}
		if !reflect.DeepEqual(gotObs.events, refObs.events) {
			t.Logf("seed %d: observer events diverge", seed)
			return false
		}
		if got.Mapped4K() != ref.Mapped4K() || got.Mapped2M() != ref.Mapped2M() ||
			got.ContigBits != ref.ContigBits {
			t.Logf("seed %d: counters diverge", seed)
			return false
		}
		var refLeft, gotLeft []Leaf
		ref.Visit(func(l Leaf) { refLeft = append(refLeft, l) })
		got.Visit(func(l Leaf) { gotLeft = append(gotLeft, l) })
		if !reflect.DeepEqual(gotLeft, refLeft) {
			t.Logf("seed %d: surviving leaves diverge", seed)
			return false
		}

		live := got.nodes()
		if len(live)+got.pool.Len() != before {
			t.Logf("seed %d: %d nodes before, %d live + %d pooled after", seed, before, len(live), got.pool.Len())
			return false
		}
		for _, n := range live[1:] {
			if n.live == 0 {
				t.Logf("seed %d: an empty table stayed linked", seed)
				return false
			}
		}
		for _, n := range got.pool.free {
			if *n != (node{}) {
				t.Logf("seed %d: a pooled node is not zero", seed)
				return false
			}
		}
		if len(gotLeft) == 0 && len(live) != 1 {
			t.Logf("seed %d: an empty table holds %d nodes, want its root", seed, len(live))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOneDescentAgrees pins the per-address operations against the
// whole-table walk on random mixed 4K/2M tables of both depths, each
// with leaves at VA 0 and in the top 2 MiB of the address space: Visit
// yields exactly VisitRange over the whole space; Walk, Lookup and
// Translate agree with every visited leaf at its first and last page
// and miss the page after it when that page is unmapped; and Unmap
// removes that same leaf.
func TestOneDescentAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := 4 + rng.Intn(2)
		pt := randomMixedTable(rng, levels)
		end := addr.VirtAddr(1) << (addr.PageShift + uint(levels)*fanoutBits)
		for _, va := range []addr.VirtAddr{0, end - addr.PageSize} {
			if _, _, _, ok := pt.Walk(va); ok {
				continue
			}
			if pt.HugeRegionEmpty(va) && rng.Intn(2) == 0 {
				pt.Map2M(va.HugeDown(), addr.PFN(rng.Intn(1<<12))*addr.HugePages, Writable)
			} else {
				pt.Map4K(va, addr.PFN(rng.Intn(1<<24)), Writable|Contig)
			}
		}

		var leaves, ranged []Leaf
		pt.Visit(func(l Leaf) { leaves = append(leaves, l) })
		pt.VisitRange(0, end, func(l Leaf) bool { ranged = append(ranged, l); return true })
		if !reflect.DeepEqual(leaves, ranged) {
			t.Logf("seed %d: Visit yields %d leaves, VisitRange(0, %v) %d", seed, len(leaves), end, len(ranged))
			return false
		}
		last := leaves[len(leaves)-1]
		if leaves[0].VA != 0 || last.VA.Add(last.Pages*addr.PageSize) != end {
			t.Logf("seed %d: Visit misses the leaf at VA 0 or at the top (%v, %v)", seed, leaves[0].VA, last.VA)
			return false
		}

		for j, l := range leaves {
			level := 0
			if l.Pages == addr.HugePages {
				level = HugeLevel
			}
			extent := l.VA.Add(l.Pages * addr.PageSize)
			for _, va := range []addr.VirtAddr{l.VA, extent - addr.PageSize} {
				pte, lvl, steps, ok := pt.Walk(va)
				if !ok || pte != l.PTE || lvl != level || steps != levels-level {
					t.Logf("seed %d: Walk(%v) = %v level %d, %d steps, %v; want leaf %+v", seed, va, pte, lvl, steps, ok, l)
					return false
				}
				if p, pages, ok := pt.Lookup(va); !ok || *p != l.PTE || pages != l.Pages {
					t.Logf("seed %d: Lookup(%v) disagrees with leaf %+v", seed, va, l)
					return false
				}
				in := va + 0xabc
				if pa, ok := pt.Translate(in); !ok || pa != l.PTE.PFN.Addr()+addr.PhysAddr(in-l.VA) {
					t.Logf("seed %d: Translate(%v) = %v, %v; want leaf %+v", seed, in, pa, ok, l)
					return false
				}
			}
			if extent == end || (j+1 < len(leaves) && leaves[j+1].VA == extent) {
				continue
			}
			_, _, steps, walked := pt.Walk(extent)
			_, _, looked := pt.Lookup(extent)
			_, translated := pt.Translate(extent)
			if walked || looked || translated || steps < 1 || steps > levels {
				t.Logf("seed %d: unmapped %v resolves (%v %v %v, %d steps)", seed, extent, walked, looked, translated, steps)
				return false
			}
		}

		for _, l := range leaves {
			va := l.VA.Add(uint64(rng.Int63n(int64(l.Pages))) * addr.PageSize)
			if e, pages, ok := pt.Unmap(va); !ok || e != l.PTE || pages != l.Pages {
				t.Logf("seed %d: Unmap(%v) = %v, %d, %v; want leaf %+v", seed, va, e, pages, ok, l)
				return false
			}
		}
		if pt.MappedPages() != 0 || pt.ContigBits != 0 {
			t.Logf("seed %d: %d pages, %d contig bits left after unmapping every leaf", seed, pt.MappedPages(), pt.ContigBits)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRecyclesNodes follows nodes through the pool: a full
// UnmapRange returns all but the root, a rebuild takes them back
// without allocating, Map2M's reclaim of an emptied PT table returns
// it, and Release returns the root of an empty table.
func TestPoolRecyclesNodes(t *testing.T) {
	pool := new(Pool)
	pt := NewWithLevels(4, pool)
	pt.Map4K(0x1000, 1, 0)
	if n := len(pt.nodes()); n != 4 {
		t.Fatalf("one 4K leaf built %d nodes, want 4", n)
	}
	pt.UnmapRange(0, 1<<48, func(Leaf) {})
	if n := len(pt.nodes()); n != 1 || pool.Len() != 3 {
		t.Fatalf("after full unmap: %d nodes linked, %d pooled; want 1 and 3", n, pool.Len())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		pt.Map4K(0x1000, 1, 0)
		pt.UnmapRange(0, 1<<48, func(Leaf) {})
	}); allocs != 0 {
		t.Fatalf("map/unmap cycle on a warm pool allocated %v times", allocs)
	}

	// Promotion: unmap every base page one by one (emptied tables
	// stay), then Map2M reclaims the PT table into the pool.
	base := addr.VirtAddr(addr.HugeSize)
	for p := uint64(0); p < addr.HugePages; p++ {
		pt.Map4K(base.Add(p*addr.PageSize), addr.PFN(p), 0)
	}
	for p := uint64(0); p < addr.HugePages; p++ {
		pt.Unmap(base.Add(p * addr.PageSize))
	}
	pooled := pool.Len()
	pt.Map2M(base, 512, 0)
	if pool.Len() != pooled+1 {
		t.Fatalf("Map2M reclaim: pool %d, want %d", pool.Len(), pooled+1)
	}

	pt.Unmap(base)
	pt.UnmapRange(0, 1<<48, func(Leaf) {})
	pooled = pool.Len()
	pt.Release()
	if pool.Len() != pooled+1 {
		t.Fatalf("Release: pool %d, want %d", pool.Len(), pooled+1)
	}
	if q := NewWithLevels(4, pool); pool.Len() != pooled || q.MappedPages() != 0 {
		t.Fatal("a new table did not take its root from the pool")
	}
}

// TestMapRun4KMatchesMap4K pins the extent fault path's two table
// operations: UnmappedRun counts the unmapped pages from v within its
// leaf table, and MapRun4K leaves the same leaves, counters and
// observer events as ascending Map4K calls.
func TestMapRun4KMatchesMap4K(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		seed := rng.Int63()
		run, loop := randomMixedTable(rand.New(rand.NewSource(seed)), 4), randomMixedTable(rand.New(rand.NewSource(seed)), 4)
		recRun, recLoop := &recObserver{}, &recObserver{}
		run.AddObserver(recRun)
		loop.AddObserver(recLoop)
		v := mixedTops[rng.Intn(2)] + addr.VirtAddr(rng.Intn(4))<<30 + addr.VirtAddr(rng.Intn(8*addr.HugePages))*addr.PageSize
		limit := uint64(rng.Intn(600))
		n := run.UnmappedRun(v, limit)
		var want uint64
		for want < limit && index(v.Add(want*addr.PageSize), 0) >= index(v, 0) {
			if _, _, ok := loop.Lookup(v.Add(want * addr.PageSize)); ok {
				break
			}
			want++
		}
		if n != want {
			t.Fatalf("trial %d: UnmappedRun(%v, %d) = %d, per-page %d", trial, v, limit, n, want)
		}
		if n == 0 {
			continue
		}
		pfn := addr.PFN(rng.Intn(1 << 24))
		flags := Writable
		if rng.Intn(2) == 0 {
			flags |= Contig
		}
		run.MapRun4K(v, pfn, n, flags)
		for i := range n {
			loop.Map4K(v.Add(i*addr.PageSize), pfn+addr.PFN(i), flags)
		}
		var gotLeaves, wantLeaves []Leaf
		run.Visit(func(l Leaf) { gotLeaves = append(gotLeaves, l) })
		loop.Visit(func(l Leaf) { wantLeaves = append(wantLeaves, l) })
		if !reflect.DeepEqual(gotLeaves, wantLeaves) {
			t.Fatalf("trial %d: leaves differ after MapRun4K(%v, %d)", trial, v, n)
		}
		if run.Mapped4K() != loop.Mapped4K() || run.ContigBits != loop.ContigBits {
			t.Fatalf("trial %d: counters %d/%d, want %d/%d", trial, run.Mapped4K(), run.ContigBits, loop.Mapped4K(), loop.ContigBits)
		}
		if !reflect.DeepEqual(recRun.events, recLoop.events) {
			t.Fatalf("trial %d: events %q, want %q", trial, recRun.events, recLoop.events)
		}
		if !reflect.DeepEqual(run.nodes()[0].live, loop.nodes()[0].live) || len(run.nodes()) != len(loop.nodes()) {
			t.Fatalf("trial %d: node structure differs", trial)
		}
	}
	assertPanics(t, func() { New().MapRun4K(addr.VirtAddr(510)*addr.PageSize, 0, 3, 0) })
}
