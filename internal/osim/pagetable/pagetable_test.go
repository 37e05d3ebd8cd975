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

// TestGenerationBumps pins the generation-counter contract the walk
// cache builds on: every translation-visible mutation must move the
// counter; pure reads and no-op mutations must not.
func TestGenerationBumps(t *testing.T) {
	pt := New()
	g := pt.Generation()
	bump := func(what string, fn func()) {
		t.Helper()
		fn()
		if pt.Generation() == g {
			t.Fatalf("%s did not bump the generation", what)
		}
		g = pt.Generation()
	}
	same := func(what string, fn func()) {
		t.Helper()
		fn()
		if pt.Generation() != g {
			t.Fatalf("%s bumped the generation but changed no translation", what)
		}
	}
	bump("Map4K", func() { pt.Map4K(0x1000, 7, 0) })
	bump("Map2M", func() { pt.Map2M(addr.VirtAddr(addr.HugeSize), 512, 0) })
	bump("SetContig on", func() { pt.SetContig(0x1000, true) })
	same("idempotent SetContig", func() { pt.SetContig(0x1000, true) })
	bump("SetContig off", func() { pt.SetContig(0x1000, false) })
	bump("Redirect", func() {
		if !pt.Redirect(0x1000, 99) {
			t.Fatal("Redirect of a mapped page failed")
		}
	})
	same("failed Redirect", func() { pt.Redirect(0xdead000, 1) })
	same("reads", func() {
		pt.Lookup(0x1000)
		pt.Translate(0x1000)
		pt.Walk(0x1000)
	})
	bump("Unmap 4K", func() { pt.Unmap(0x1000) })
	bump("Unmap 2M", func() { pt.Unmap(addr.VirtAddr(addr.HugeSize)) })
	same("failed Unmap", func() { pt.Unmap(0x1000) })
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
