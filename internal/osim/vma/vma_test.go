package vma

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
)

func TestNewGeometry(t *testing.T) {
	v := New(1, 0x10000, 16*addr.PageSize, Anonymous)
	if v.Size() != 16*addr.PageSize || v.Pages() != 16 {
		t.Fatal("size wrong")
	}
	if !v.Contains(0x10000) || !v.Contains(v.End-1) || v.Contains(v.End) {
		t.Fatal("Contains boundaries wrong")
	}
	if v.UnmappedPages() != 16 {
		t.Fatal("fresh VMA fully unmapped")
	}
	v.MappedPages = 5
	if v.UnmappedPages() != 11 {
		t.Fatal("UnmappedPages wrong")
	}
	assertPanics(t, func() { New(2, 0x10001, addr.PageSize, Anonymous) })
	assertPanics(t, func() { New(3, 0x10000, 0, Anonymous) })
	assertPanics(t, func() { New(4, 0x10000, 100, Anonymous) })
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

func TestKindString(t *testing.T) {
	if Anonymous.String() != "anon" || FileBacked.String() != "file" {
		t.Fatal("Kind strings")
	}
}

func TestOffsetTrackingFIFO(t *testing.T) {
	v := New(1, 0, uint64(MaxOffsets+10)*addr.HugeSize, Anonymous)
	for i := 0; i < MaxOffsets+10; i++ {
		v.TrackOffset(addr.VirtAddr(i)*addr.HugeSize, addr.Offset(i))
	}
	if v.OffsetCount() != MaxOffsets {
		t.Fatalf("count = %d, want %d", v.OffsetCount(), MaxOffsets)
	}
	// The 10 oldest entries were evicted: nearest to VA 0 is entry 10.
	off, ok := v.NearestOffset(0)
	if !ok || off != addr.Offset(10) {
		t.Fatalf("NearestOffset(0) = (%d, %v), want 10", off, ok)
	}
}

func TestNearestOffsetSelection(t *testing.T) {
	v := New(1, 0, 100*addr.HugeSize, Anonymous)
	if _, ok := v.NearestOffset(0); ok {
		t.Fatal("no offsets yet")
	}
	v.TrackOffset(10*addr.HugeSize, 111)
	v.TrackOffset(50*addr.HugeSize, 222)
	v.TrackOffset(90*addr.HugeSize, 333)
	cases := []struct {
		va   addr.VirtAddr
		want addr.Offset
	}{
		{0, 111},
		{29 * addr.HugeSize, 111},
		{31 * addr.HugeSize, 222},
		{69 * addr.HugeSize, 222},
		{95 * addr.HugeSize, 333},
	}
	for _, c := range cases {
		if got, _ := v.NearestOffset(c.va); got != c.want {
			t.Errorf("NearestOffset(%v) = %d, want %d", c.va, got, c.want)
		}
	}
}

// nearestEntry is NearestOffset returning the index of the entry it
// picks, the identity NearestOffsetRun's run length is about.
func nearestEntry(v *VMA, va addr.VirtAddr) int {
	best := 0
	for i, e := range v.offsets {
		if dist(e.FaultVA, va) < dist(v.offsets[best].FaultVA, va) {
			best = i
		}
	}
	return best
}

// TestNearestOffsetRunMatchesPerPage pins NearestOffsetRun's closed form
// against per-page NearestOffset: over random FIFO entries (fault VAs
// page aligned or not, duplicates and midpoint ties included) and
// random starting pages, it returns NearestOffset's offset and exactly
// the number of pages, capped at maxPages, before the picked entry
// changes.
func TestNearestOffsetRunMatchesPerPage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const pages = 2048
	for trial := 0; trial < 3000; trial++ {
		v := New(1, 0, pages*addr.PageSize, Anonymous)
		if _, n, ok := v.NearestOffsetRun(0, 8); ok || n != 0 {
			t.Fatal("run without offsets")
		}
		for e := 1 + rng.Intn(6); e > 0; e-- {
			fva := addr.VirtAddr(rng.Intn(pages)) * addr.PageSize
			if rng.Intn(4) == 0 {
				fva += addr.VirtAddr(rng.Intn(addr.PageSize))
			}
			v.TrackOffset(fva, addr.Offset(rng.Intn(1<<20)))
		}
		va := addr.VirtAddr(rng.Intn(pages)) * addr.PageSize
		maxPages := uint64(1 + rng.Intn(pages))
		off, n, ok := v.NearestOffsetRun(va, maxPages)
		if want, _ := v.NearestOffset(va); !ok || off != want {
			t.Fatalf("trial %d: offset %d, NearestOffset says %d", trial, off, want)
		}
		first := nearestEntry(v, va)
		var want uint64
		for want < maxPages && nearestEntry(v, va.Add(want*addr.PageSize)) == first {
			want++
		}
		if n != want {
			t.Fatalf("trial %d: offsets %+v from %v: run %d, per-page %d (max %d)", trial, v.offsets, va, n, want, maxPages)
		}
	}
}

func TestReplacementGateMutualExclusion(t *testing.T) {
	v := New(1, 0, addr.PageSize, Anonymous)
	if !v.TryBeginReplacement() {
		t.Fatal("first acquire should win")
	}
	if v.TryBeginReplacement() {
		t.Fatal("second acquire should lose")
	}
	v.EndReplacement()
	if !v.TryBeginReplacement() {
		t.Fatal("reacquire after release should win")
	}
	v.EndReplacement()
}

func TestReplacementGateConcurrent(t *testing.T) {
	v := New(1, 0, addr.PageSize, Anonymous)
	const goroutines = 32
	var wg sync.WaitGroup
	winners := make(chan int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if v.TryBeginReplacement() {
				winners <- id
			}
		}(i)
	}
	wg.Wait()
	close(winners)
	n := 0
	for range winners {
		n++
	}
	if n != 1 {
		t.Fatalf("%d concurrent winners, want exactly 1", n)
	}
}

func TestConcurrentOffsetTracking(t *testing.T) {
	v := New(1, 0, 1024*addr.HugeSize, Anonymous)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.TrackOffset(addr.VirtAddr(g*100+i)*addr.PageSize, addr.Offset(i))
				v.NearestOffset(addr.VirtAddr(i) * addr.PageSize)
			}
		}(g)
	}
	wg.Wait()
	if v.OffsetCount() != MaxOffsets {
		t.Fatalf("count = %d", v.OffsetCount())
	}
}

func TestSetInsertFindRemove(t *testing.T) {
	var s Set
	var pool Pool
	a, err := s.Insert(&pool, 0x10000, 4*addr.PageSize, Anonymous)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Insert(&pool, 0x40000, 4*addr.PageSize, FileBacked)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if s.Find(0x10000) != a || s.Find(0x40000+3*addr.PageSize) != b {
		t.Fatal("Find wrong")
	}
	if s.Find(0x30000) != nil {
		t.Fatal("gap should find nil")
	}
	// Overlap rejection, both directions.
	if _, err := s.Insert(&pool, 0x10000+addr.PageSize, addr.PageSize, Anonymous); err == nil {
		t.Fatal("overlap accepted")
	}
	if _, err := s.Insert(&pool, 0xF000, 2*addr.PageSize, Anonymous); err == nil {
		t.Fatal("left-overlap accepted")
	}
	if !s.Remove(a) {
		t.Fatal("Remove failed")
	}
	if s.Remove(a) {
		t.Fatal("double Remove succeeded")
	}
	if s.Find(0x10000) != nil {
		t.Fatal("removed VMA still found")
	}
	// Freed range is insertable again, and the pooled shell comes back
	// as the fresh VMA the set would have built, with the next ID.
	a.MarkTouched(1)
	a.TrackOffset(0x10000, 7)
	a.MappedPages, a.Plan = 3, "plan"
	pool.Put(a)
	c, err := s.Insert(&pool, 0x10000, 2*addr.PageSize, Anonymous)
	if err != nil {
		t.Fatal(err)
	}
	if c != a || pool.Len() != 0 {
		t.Fatal("Insert did not reuse the pooled shell")
	}
	if c.ID != 3 || c.Pages() != 2 || c.MappedPages != 0 || c.Plan != nil ||
		c.TouchedPages() != 0 || c.RegionTouched(0, 2) != 0 || c.OffsetCount() != 0 {
		t.Fatalf("recycled VMA %v kept state: mapped %d, plan %v, touched %d, offsets %d",
			c, c.MappedPages, c.Plan, c.TouchedPages(), c.OffsetCount())
	}
	if !c.MarkTouched(1) {
		t.Fatal("recycled bitmap kept a touched bit")
	}
}

func TestSetOrderedVisit(t *testing.T) {
	var s Set
	for _, start := range []addr.VirtAddr{0x90000, 0x10000, 0x50000} {
		if _, err := s.Insert(new(Pool), start, addr.PageSize, Anonymous); err != nil {
			t.Fatal(err)
		}
	}
	var prev addr.VirtAddr
	s.Visit(func(v *VMA) {
		if v.Start < prev {
			t.Fatal("Visit out of order")
		}
		prev = v.Start
	})
}

func TestSetNonOverlapProperty(t *testing.T) {
	f := func(starts []uint16) bool {
		var s Set
		for _, raw := range starts {
			start := addr.VirtAddr(raw) << addr.PageShift
			s.Insert(new(Pool), start, 4*addr.PageSize, Anonymous) // error is fine
		}
		// Invariant: visited VMAs are sorted and disjoint.
		var prevEnd addr.VirtAddr
		ok := true
		s.Visit(func(v *VMA) {
			if v.Start < prevEnd {
				ok = false
			}
			prevEnd = v.End
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
