package osim

import (
	"testing"

	"repro/internal/mem/addr"
)

func TestPageCacheReadPopulates(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	f := k.Cache.CreateFile(100 * addr.PageSize)
	if f.Pages() != 100 {
		t.Fatalf("Pages = %d", f.Pages())
	}
	if err := k.Cache.Read(f, 0, 10*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	// Readahead rounds population up to the window.
	if f.CachedPages() != ReadaheadPages {
		t.Fatalf("cached = %d, want %d", f.CachedPages(), ReadaheadPages)
	}
	// Buffered reads are not page faults, but they cost time.
	if k.Stats.Faults[FaultFile] != 0 {
		t.Fatalf("file faults = %d, want 0 for buffered reads", k.Stats.Faults[FaultFile])
	}
	if k.Clock == 0 {
		t.Fatal("cache fills should charge allocation time")
	}
	// Re-read is free.
	clockBefore := k.Clock
	if err := k.Cache.Read(f, 0, 10*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if k.Clock != clockBefore {
		t.Fatal("cached re-read cost time")
	}
	// EOF guard.
	if err := k.Cache.Read(f, 99*addr.PageSize, 2*addr.PageSize); err == nil {
		t.Fatal("read past EOF should fail")
	}
}

func TestPageCacheSurvivesProcessExit(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	f := k.Cache.CreateFile(32 * addr.PageSize)
	p := k.NewProcess(0)
	v, err := p.MMapFile(f, 0, f.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	if f.CachedPages() != 32 {
		t.Fatalf("cached = %d", f.CachedPages())
	}
	resident := k.Cache.ResidentPages
	p.Exit()
	// Cache pages outlive the process.
	if k.Cache.ResidentPages != resident || f.CachedPages() != 32 {
		t.Fatal("page cache dropped on process exit")
	}
	// Frames still allocated.
	if k.Machine.FreePages() == k.Machine.TotalPages() {
		t.Fatal("cache frames were freed with the process")
	}
	// A second process maps the same file: no new cache fills.
	before := k.Stats.Faults[FaultFile]
	p2 := k.NewProcess(0)
	v2, _ := p2.MMapFile(f, 0, f.Bytes)
	touchRange(t, p2, v2.Start, v2.Size(), addr.PageSize)
	// Mapping faults occur, but no readahead allocations (same count of
	// cache fills as before plus 32 map-in faults).
	if k.Stats.Faults[FaultFile] != before+32 {
		t.Fatalf("file faults = %d, want %d", k.Stats.Faults[FaultFile], before+32)
	}
	p2.Exit()
	k.Cache.DropAll()
	if k.Machine.FreePages() != k.Machine.TotalPages() {
		t.Fatal("DropAll leaked frames")
	}
	if k.Cache.ResidentPages != 0 {
		t.Fatal("ResidentPages nonzero after DropAll")
	}
}

func TestPageCacheSharedFrames(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	f := k.Cache.CreateFile(4 * addr.PageSize)
	p1, p2 := k.NewProcess(0), k.NewProcess(0)
	v1, _ := p1.MMapFile(f, 0, f.Bytes)
	v2, _ := p2.MMapFile(f, 0, f.Bytes)
	touchRange(t, p1, v1.Start, v1.Size(), addr.PageSize)
	touchRange(t, p2, v2.Start, v2.Size(), addr.PageSize)
	pa1, _ := p1.PT.Translate(v1.Start)
	pa2, _ := p2.PT.Translate(v2.Start)
	if pa1 != pa2 {
		t.Fatal("file page not shared between processes")
	}
	// Exit both; frames stay until cache drop.
	p1.Exit()
	p2.Exit()
	if k.Machine.Frames.IsFree(pa1.Frame()) {
		t.Fatal("cache frame freed while cached")
	}
	k.Cache.DropFile(f)
	if !k.Machine.Frames.IsFree(pa1.Frame()) {
		t.Fatal("cache frame not freed after drop")
	}
}

func TestCAFilePlacementContiguous(t *testing.T) {
	// Under CA paging, cache pages of one file form a contiguous
	// physical run even when reads interleave with anonymous faults —
	// the per-file Offset steering of §III-C.
	k := newKernel(t, 64, CAPolicy{})
	f := k.Cache.CreateFile(64 * addr.PageSize)
	p := k.NewProcess(0)
	anon, _ := p.MMap(64 * addr.PageSize)
	k.THPEnabled = false
	// Interleave: read a file chunk, touch an anon chunk.
	for i := uint64(0); i < 64; i += ReadaheadPages {
		if err := k.Cache.Read(f, i*addr.PageSize, ReadaheadPages*addr.PageSize); err != nil {
			t.Fatal(err)
		}
		for j := i; j < i+ReadaheadPages; j++ {
			if _, err := p.Touch(anon.Start.Add(j*addr.PageSize), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	// File pages must be physically consecutive.
	first, ok := f.cachedPFN(0)
	if !ok {
		t.Fatal("file page 0 not cached")
	}
	for i := uint64(1); i < 64; i++ {
		pfn, ok := f.cachedPFN(i)
		if !ok || pfn != first+addr.PFN(i) {
			t.Fatalf("file page %d at %d, want %d (scattered cache)", i, pfn, first+addr.PFN(i))
		}
	}
}

func TestMMapFileBeyondEOFSegfaults(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	f := k.Cache.CreateFile(2 * addr.PageSize)
	p := k.NewProcess(0)
	v, _ := p.MMapFile(f, 0, 4*addr.PageSize) // mapping larger than file
	if _, err := p.Touch(v.Start.Add(3*addr.PageSize), false); err != ErrSegfault {
		t.Fatalf("want ErrSegfault past EOF, got %v", err)
	}
}

// TestDropOldestEvictsLowestResidentID fills files out of ID order,
// drops one, and refills another after eviction: DropOldest must
// always take the lowest-ID file still holding pages, a dropped file
// must release its slots, and a refill must make them again.
func TestDropOldestEvictsLowestResidentID(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	var fs []*File
	for i := 0; i < 4; i++ {
		fs = append(fs, k.Cache.CreateFile(ReadaheadPages*addr.PageSize))
	}
	read := func(f *File) {
		t.Helper()
		if err := k.Cache.Read(f, 0, addr.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 1, 0, 2} {
		read(fs[i])
	}
	k.Cache.DropFile(fs[2])
	if fs[2].pages != nil || fs[2].CachedPages() != 0 {
		t.Fatal("dropped file keeps its slots")
	}
	evict := func(want *File) {
		t.Helper()
		if !k.Cache.DropOldest() {
			t.Fatalf("DropOldest found nothing, want file %d", want.ID)
		}
		if want.CachedPages() != 0 || want.pages != nil {
			t.Fatalf("DropOldest did not evict file %d", want.ID)
		}
	}
	evict(fs[0])
	read(fs[0]) // refilled: the lowest resident ID again
	if fs[0].pages == nil || fs[0].CachedPages() != ReadaheadPages {
		t.Fatal("refill did not make the file's slots again")
	}
	evict(fs[0])
	evict(fs[1])
	evict(fs[3])
	if k.Cache.DropOldest() {
		t.Fatal("DropOldest evicted from an empty cache")
	}
	if k.Cache.ResidentPages != 0 || k.Machine.FreePages() != k.Machine.TotalPages() {
		t.Fatal("eviction leaked frames")
	}
}

// isolateSlotDepot empties the shared slot depot for the test and puts
// its arrays back afterwards, so the test sees only the arrays it
// deposits. No osim test runs in parallel, so nothing else touches the
// depot meanwhile.
func isolateSlotDepot(t *testing.T) {
	slotDepot.Lock()
	saved := slotDepot.arrays
	slotDepot.arrays = nil
	slotDepot.Unlock()
	t.Cleanup(func() {
		slotDepot.Lock()
		slotDepot.arrays = append(slotDepot.arrays, saved...)
		slotDepot.Unlock()
	})
}

// TestDroppedSlotsAreReused pins the slot depot's reuse: a dropped
// file's array goes to the depot; a longer file never takes it; a
// shorter one does, sliced to its own length and cleared, so only the
// pages it fills itself read as resident.
func TestDroppedSlotsAreReused(t *testing.T) {
	isolateSlotDepot(t)
	k := newKernel(t, 16, DefaultPolicy{})
	const pages = 4 * ReadaheadPages
	a := k.Cache.CreateFile(pages * addr.PageSize)
	if err := k.Cache.Read(a, 0, pages*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	old := &a.pages[0]
	k.Cache.DropFile(a)
	if len(slotDepot.arrays) != 1 {
		t.Fatalf("depot holds %d arrays after one drop, want 1", len(slotDepot.arrays))
	}

	longer := k.Cache.CreateFile(2 * pages * addr.PageSize)
	if err := k.Cache.Read(longer, 0, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if &longer.pages[0] == old || len(slotDepot.arrays) != 1 {
		t.Fatal("a longer file took the dropped file's slot array")
	}

	const short = 3 * ReadaheadPages
	b := k.Cache.CreateFile(short * addr.PageSize)
	if err := k.Cache.Read(b, ReadaheadPages*addr.PageSize, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if &b.pages[0] != old || len(slotDepot.arrays) != 0 {
		t.Fatal("a shorter file made a new slot array instead of taking the depot's")
	}
	if len(b.pages) != short {
		t.Fatalf("taken slot array has %d slots, want the file's %d", len(b.pages), short)
	}
	for i := uint64(0); i < short; i++ {
		_, ok := b.cachedPFN(i)
		if want := i >= ReadaheadPages && i < 2*ReadaheadPages; ok != want {
			t.Fatalf("page %d: resident %v, want %v", i, ok, want)
		}
	}
	if b.CachedPages() != ReadaheadPages {
		t.Fatalf("cached = %d, want %d", b.CachedPages(), ReadaheadPages)
	}
	var slots, resident int
	k.Cache.VisitFiles(func(s []addr.PFN) {
		slots += len(s)
		for _, v := range s {
			if v != 0 {
				resident++
			}
		}
	})
	if slots != 2*pages+short || uint64(resident) != k.Cache.ResidentPages {
		t.Fatalf("VisitFiles saw %d slots and %d resident pages, want %d and %d",
			slots, resident, 2*pages+short, k.Cache.ResidentPages)
	}

	k.Cache.DropAll()
	if len(slotDepot.arrays) != 2 {
		t.Fatalf("depot holds %d arrays after dropping both files, want 2", len(slotDepot.arrays))
	}
	if k.Cache.ResidentPages != 0 || k.Machine.FreePages() != k.Machine.TotalPages() {
		t.Fatal("eviction leaked frames")
	}
}

// TestSlotDepotBestFit pins the depot's choice: the smallest array with
// room for the file, never one too small, and a new array when none
// has room.
func TestSlotDepotBestFit(t *testing.T) {
	isolateSlotDepot(t)
	var c PageCache
	for _, n := range []int{8, 64, 16, 32} {
		s := make([]addr.PFN, n)
		for i := range s {
			s[i] = addr.PFN(i + 1) // stale contents slots must clear
		}
		depositSlots(s)
	}
	for _, want := range []struct{ n, cap int }{{10, 16}, {16, 32}, {9, 64}, {8, 8}, {1, 0}} {
		s := c.slots(uint64(want.n))
		if len(s) != want.n || cap(s) < want.n {
			t.Fatalf("slots(%d) returned %d slots of capacity %d", want.n, len(s), cap(s))
		}
		if want.cap != 0 && cap(s) != want.cap {
			t.Fatalf("slots(%d) took the array of capacity %d, want %d", want.n, cap(s), want.cap)
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("slots(%d): slot %d holds %d, want cleared", want.n, i, v)
			}
		}
	}
	if len(slotDepot.arrays) != 0 {
		t.Fatalf("depot holds %d arrays, want none left", len(slotDepot.arrays))
	}
}
