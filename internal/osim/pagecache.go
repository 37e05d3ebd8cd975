package osim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
)

// ReadaheadPages is the page-cache readahead window: a cache miss
// populates this many consecutive file pages at once, mirroring the
// Linux readahead allocations the paper steers with a per-file Offset.
const ReadaheadPages = 16

// maxSpareSlots caps the slot arrays the cache keeps from dropped files
// for later files to reuse. Churn that drops one file and caches the
// next, as aging campaigns do, needs only one.
const maxSpareSlots = 2

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
	// nil while no page is cached: the cache makes it (or reuses a
	// dropped file's) on a file's first fill and releases it when the
	// file's last page goes.
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
	// spare holds cleared slot arrays of dropped files (at most
	// maxSpareSlots): a file of the same length reuses one instead of
	// allocating its own.
	spare [][]addr.PFN
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

// setCached records pfn as the frame caching file page idx, making the
// file's slots and entering it in the resident set on its first page.
func (c *PageCache) setCached(f *File, idx uint64, pfn addr.PFN) {
	if f.cached == 0 {
		f.pages = c.slots(f.Pages())
		i, _ := slices.BinarySearchFunc(c.resident, f.ID, func(r *File, id int) int { return cmp.Compare(r.ID, id) })
		c.resident = slices.Insert(c.resident, i, f)
	}
	f.pages[idx] = pfn + 1
	f.cached++
	c.ResidentPages++
}

// slots returns a zeroed slot array of n entries, taking a spare of
// that length when the cache holds one.
func (c *PageCache) slots(n uint64) []addr.PFN {
	for i, s := range c.spare {
		if uint64(len(s)) == n {
			c.spare = slices.Delete(c.spare, i, i+1)
			return s
		}
	}
	return make([]addr.PFN, n)
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
	k := c.kernel
	end := pageIdx + ReadaheadPages
	if end > f.Pages() {
		end = f.Pages()
	}
	for i := pageIdx; i < end; i++ {
		if _, ok := f.cachedPFN(i); ok {
			continue
		}
		pfn, placed, err := k.Policy.PlaceFile(k, f, i, 0)
		if err != nil {
			return 0, err
		}
		c.setCached(f, i, pfn)
		// Cache frames are owned by the cache: one base reference.
		k.Machine.Frames.Get(pfn).MapCount++
		k.Tick(k.faultLatency(0, placed))
	}
	pfn, _ := f.cachedPFN(pageIdx)
	return pfn, nil
}

// Read simulates a buffered read of [off, off+n) bytes: it populates
// the cache without mapping pages into any process.
func (c *PageCache) Read(f *File, off, n uint64) error {
	if off+n > f.Bytes {
		return fmt.Errorf("osim: read past EOF (%d+%d > %d)", off, n, f.Bytes)
	}
	for idx := off / addr.PageSize; idx <= (off+n-1)/addr.PageSize; idx++ {
		if _, err := c.lookupOrFill(f, idx); err != nil {
			return err
		}
	}
	return nil
}

// DropFile evicts a file's pages from the cache, freeing frames whose
// only reference was the cache. Pages are freed in file order: the
// free sequence feeds the buddy free lists, so any other order would
// make every later allocation run-to-run nondeterministic.
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
		fr := k.Machine.Frames.Get(v - 1)
		fr.MapCount--
		if fr.MapCount <= 0 {
			k.Machine.FreeBlock(v-1, 0)
		}
	}
	c.ResidentPages -= f.cached
	f.cached = 0
	if len(c.spare) < maxSpareSlots {
		clear(f.pages)
		c.spare = append(c.spare, f.pages)
	}
	f.pages = nil
	c.resident = slices.DeleteFunc(c.resident, func(r *File) bool { return r == f })
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
