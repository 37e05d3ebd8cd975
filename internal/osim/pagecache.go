package osim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
)

// ReadaheadPages is the page-cache readahead window: a cache miss
// populates this many consecutive file pages at once, mirroring the
// Linux readahead allocations the paper steers with a per-file Offset.
const ReadaheadPages = 16

// slotDepot holds the slot arrays of files that no longer cache a page,
// shared by every page cache: a file's first fill takes the smallest
// array that fits instead of allocating one. Dropped files and
// recycled kernels (Kernel.Recycle) fill it, so an aging campaign's
// files reuse the arrays of the files it evicted and of the campaigns
// before it, whichever goroutine ran them.
var slotDepot struct {
	sync.Mutex
	arrays [][]addr.PFN
}

// File is a simulated file whose pages live in the page cache. Cache
// pages persist after the mapping processes exit — the property that
// makes scattered cache allocations a long-lived fragmentation source
// (§III-C) and contiguous ones a fragmentation restraint (Fig. 9).
type File struct {
	ID    int
	Bytes uint64

	// pages holds the cached frame of each file page, indexed by file
	// page number and encoded as PFN+1 (0 = not resident): a dense
	// array beats a map in the readahead fill loop, and the +1
	// encoding makes a fresh zeroed slice mean "nothing cached". It is
	// nil while no page is cached: the cache takes it from the slot
	// depot on a file's first fill and gives it back when the file's
	// last page goes.
	pages  []addr.PFN
	cached uint64

	// CA paging per-file placement state (struct address_space Offset).
	offset       addr.Offset
	placedOffset bool
}

// Pages returns the file length in pages.
func (f *File) Pages() uint64 { return addr.BytesToPages(f.Bytes) }

// CachedPages returns how many of the file's pages are resident.
func (f *File) CachedPages() uint64 { return f.cached }

// cachedPFN returns the frame caching file page idx, if resident.
func (f *File) cachedPFN(idx uint64) (addr.PFN, bool) {
	if f.cached == 0 {
		return 0, false
	}
	v := f.pages[idx]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// PageCache is the system-wide cache of file pages.
type PageCache struct {
	kernel *Kernel
	files  map[int]*File
	// resident holds the files with cached pages in ascending ID
	// order. Eviction, DropAll and VisitFiles walk only these, so
	// files whose pages are all gone cost nothing however many a long
	// run creates.
	resident []*File
	nextID   int
	// ResidentPages counts cached frames across all files.
	ResidentPages uint64
}

func newPageCache(k *Kernel) *PageCache {
	return &PageCache{kernel: k, files: make(map[int]*File)}
}

// CreateFile registers a file of the given size.
func (c *PageCache) CreateFile(bytes uint64) *File {
	c.nextID++
	f := &File{ID: c.nextID, Bytes: bytes}
	c.files[f.ID] = f
	return f
}

// File returns the file with the given ID, or nil.
func (c *PageCache) File(id int) *File { return c.files[id] }

// VisitFiles calls fn once for every file with resident pages, in
// ascending file ID order, with that file's page slots: slots[i] is the frame
// caching file page i plus one, or 0 when that page is not resident.
// The audit engine loops over the slots inline to account for the
// cache's base reference on each resident frame; fn must not keep or
// modify them.
func (c *PageCache) VisitFiles(fn func(slots []addr.PFN)) {
	for _, f := range c.resident {
		fn(f.pages)
	}
}

// slots returns a zeroed slot array of n entries: the smallest depot
// array with room for n, sliced to n and cleared, or a new one when
// none has room.
func (c *PageCache) slots(n uint64) []addr.PFN {
	slotDepot.Lock()
	best := -1
	for i, s := range slotDepot.arrays {
		if uint64(cap(s)) >= n && (best < 0 || cap(s) < cap(slotDepot.arrays[best])) {
			best = i
		}
	}
	if best < 0 {
		slotDepot.Unlock()
		return make([]addr.PFN, n)
	}
	s := slotDepot.arrays[best]
	last := len(slotDepot.arrays) - 1
	slotDepot.arrays[best] = slotDepot.arrays[last]
	slotDepot.arrays[last] = nil
	slotDepot.arrays = slotDepot.arrays[:last]
	slotDepot.Unlock()
	s = s[:n]
	clear(s)
	return s
}

// depositSlots gives a slot array to the depot; slots clears it when
// it hands it out again.
func depositSlots(s []addr.PFN) {
	slotDepot.Lock()
	slotDepot.arrays = append(slotDepot.arrays, s)
	slotDepot.Unlock()
}

// release takes a file with no cached page out of the resident set and
// gives its slot array to the depot.
func (c *PageCache) release(f *File) {
	depositSlots(f.pages)
	f.pages = nil
	c.resident = slices.DeleteFunc(c.resident, func(r *File) bool { return r == f })
}

// recycle gives every resident file's slot array to the depot and
// empties the resident set, for Kernel.Recycle. It frees no frame and
// leaves the files' counts as they were: the cache must not be used
// again.
func (c *PageCache) recycle() {
	for _, f := range c.resident {
		depositSlots(f.pages)
		f.pages = nil
	}
	c.resident = nil
}

// lookupOrFill returns the frame caching the file page, populating a
// readahead window on miss. Cache fills charge allocation time on the
// kernel clock but are *not* page faults: readahead allocation runs
// under read() syscalls, so only mapping faults (fileFault) count
// toward the Table V fault statistics.
func (c *PageCache) lookupOrFill(f *File, pageIdx uint64) (addr.PFN, error) {
	if pfn, ok := f.cachedPFN(pageIdx); ok {
		return pfn, nil
	}
	if err := c.fill(f, pageIdx, min(pageIdx+ReadaheadPages, f.Pages())); err != nil {
		return 0, err
	}
	return f.pages[pageIdx] - 1, nil
}

// fill caches every missing page of [lo, hi) in ascending order, the
// pages a page-at-a-time loop would place. Each run of consecutive
// missing slots takes one PlaceFile call (more when the policy places
// fewer pages per call, as CA does), and the policy writes the run's
// frames straight into the file's slots. On OOM the pages placed so far
// stay cached and fill returns ErrOOM.
func (c *PageCache) fill(f *File, lo, hi uint64) error {
	k := c.kernel
	if f.pages == nil {
		f.pages = c.slots(f.Pages())
	}
	var err error
	for i := lo; i < hi && err == nil; {
		if f.pages[i] != 0 {
			i++
			continue
		}
		j := i + 1
		for j < hi && f.pages[j] == 0 {
			j++
		}
		for i < j {
			var n int
			var placed bool
			if n, placed, err = k.Policy.PlaceFile(k, f, i, f.pages[i:j]); err != nil {
				break
			}
			c.cacheRun(f, f.pages[i:i+uint64(n)])
			k.Tick(uint64(n) * k.faultLatency(0, placed))
			i += uint64(n)
		}
	}
	if f.cached == 0 {
		c.release(f) // the first placement failed
	}
	return err
}

// cacheRun records the frames a policy just wrote into run, a stretch
// of f's slots, as cached: it enters the file in the resident set on
// its first pages, takes the cache's base reference on each frame (one
// frame-table slice per stretch of consecutive frames) and encodes the
// slots as PFN+1.
func (c *PageCache) cacheRun(f *File, run []addr.PFN) {
	if f.cached == 0 {
		i, _ := slices.BinarySearchFunc(c.resident, f.ID, func(r *File, id int) int { return cmp.Compare(r.ID, id) })
		c.resident = slices.Insert(c.resident, i, f)
	}
	frames := c.kernel.Machine.Frames
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j] == run[j-1]+1 {
			j++
		}
		fs := frames.Slice(run[i], uint64(j-i))
		for x := range fs {
			fs[x].MapCount++
		}
		for ; i < j; i++ {
			run[i]++
		}
	}
	f.cached += uint64(len(run))
	c.ResidentPages += uint64(len(run))
}

// Read simulates a buffered read of [off, off+n) bytes: it populates
// the cache without mapping pages into any process. A zero-length read
// caches nothing.
func (c *PageCache) Read(f *File, off, n uint64) error {
	if off+n > f.Bytes {
		return fmt.Errorf("osim: read past EOF (%d+%d > %d)", off, n, f.Bytes)
	}
	if n == 0 {
		return nil
	}
	for idx, last := off/addr.PageSize, (off+n-1)/addr.PageSize; idx <= last; {
		if _, ok := f.cachedPFN(idx); ok {
			idx++
			continue
		}
		// A miss fills its readahead window, so the read resumes
		// past it.
		end := min(idx+ReadaheadPages, f.Pages())
		if err := c.fill(f, idx, end); err != nil {
			return err
		}
		idx = end
	}
	return nil
}

// DropFile evicts a file's pages from the cache, freeing frames whose
// only reference was the cache. Pages are freed in file order, through
// Kernel.freeLater: the free sequence feeds the buddy free lists, so
// any other order would make every later allocation run-to-run
// nondeterministic.
func (c *PageCache) DropFile(f *File) {
	f.placedOffset = false
	if f.cached == 0 {
		return
	}
	k := c.kernel
	for _, v := range f.pages {
		if v == 0 {
			continue
		}
		pfn := v - 1
		fr := k.Machine.Frames.Get(pfn)
		if fr.MapCount--; fr.MapCount <= 0 {
			k.freeLater(pfn)
		}
	}
	k.flushFree()
	c.ResidentPages -= f.cached
	f.cached = 0
	c.release(f)
}

// DropAll evicts the whole cache (echo 3 > drop_caches) in file-ID
// order, for the same determinism reason as DropFile.
func (c *PageCache) DropAll() {
	for len(c.resident) != 0 {
		c.DropFile(c.resident[0])
	}
}

// DropOldest evicts the oldest file still holding cache pages (LRU at
// file granularity — the reclaim kernels run under memory pressure):
// the resident file with the lowest ID. Reports whether anything was
// evicted.
func (c *PageCache) DropOldest() bool {
	if len(c.resident) == 0 {
		return false
	}
	c.DropFile(c.resident[0])
	return true
}

// ReclaimUnder evicts old files until at least minFreeFrac of the
// machine is free (or nothing is left to evict).
func (c *PageCache) ReclaimUnder(minFreeFrac float64) {
	k := c.kernel
	for float64(k.Machine.FreePages()) < minFreeFrac*float64(k.Machine.TotalPages()) {
		if !c.DropOldest() {
			return
		}
	}
}

// fileFault maps the cache page backing va into the faulting process,
// populating the cache if needed.
func (k *Kernel) fileFault(p *Process, v *vma.VMA, va addr.VirtAddr) error {
	f := k.Cache.File(v.FileID)
	if f == nil {
		return fmt.Errorf("osim: VMA %v references unknown file %d", v, v.FileID)
	}
	pageIdx := (v.FileOff + uint64(va-v.Start)) / addr.PageSize
	if pageIdx >= f.Pages() {
		return ErrSegfault
	}
	pfn, err := k.Cache.lookupOrFill(f, pageIdx)
	if err != nil {
		return err
	}
	base := va.PageDown()
	p.PT.Map4K(base, pfn, pagetable.Flags(0)) // file maps are read-only here
	k.Machine.Frames.Get(pfn).MapCount++
	v.MappedPages++
	p.RSSPages++
	k.recordFault(FaultFile, base, FaultBaseNs)
	return nil
}
