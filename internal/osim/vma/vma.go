// Package vma models virtual memory areas and the per-VMA metadata CA
// paging attaches to them: up to MaxOffsets [fault-VA, Offset] pairs in
// FIFO order (§III-C, "Dealing with external fragmentation") plus the
// atomic replacement gate that serialises re-placement decisions among
// concurrently faulting threads (§III-C, "Avoiding multithreading
// pitfalls").
package vma

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/mem/addr"
)

// MaxOffsets is the default cap on tracked sub-VMA offsets per VMA
// (paper: 64, FIFO). The offset-budget ablation varies the cap per VMA
// through the Budget field; the cap itself is a constant so concurrent
// kernels never observe each other's settings.
const MaxOffsets = 64

// Kind distinguishes mapping types; they matter for fault accounting
// and teardown.
type Kind uint8

const (
	// Anonymous is a demand-zero heap/stack mapping.
	Anonymous Kind = iota
	// FileBacked maps page-cache pages of a file.
	FileBacked
)

func (k Kind) String() string {
	if k == FileBacked {
		return "file"
	}
	return "anon"
}

// OffsetEntry associates a tracked Offset with the fault address that
// created it, so later faults pick the nearest one.
type OffsetEntry struct {
	FaultVA addr.VirtAddr
	Offset  addr.Offset
}

// VMA is one contiguous virtual address range of a process.
type VMA struct {
	ID    int
	Start addr.VirtAddr
	End   addr.VirtAddr // exclusive
	Kind  Kind
	// replacing is the atomic flag gating Offset re-placement: only the
	// first failing thread re-places; the rest retry or fall back. It
	// sits beside Kind, in Kind's padding.
	replacing atomic.Bool
	// FileID identifies the backing file for FileBacked VMAs.
	FileID int
	// FileOff is the file offset of Start for FileBacked VMAs (bytes).
	FileOff uint64

	// Budget overrides MaxOffsets for this VMA when positive (the
	// offset-budget ablation); 0 means the default.
	Budget int

	// MappedPages counts base pages currently backed by frames.
	MappedPages uint64

	mu      sync.Mutex
	offsets []OffsetEntry // FIFO, at most MaxOffsets

	// Plan is Translation Ranger's defragmentation plan for this VMA
	// (package daemon), nil until Ranger first scans it. It lives and
	// dies with the VMA: a recycled shell comes back without it.
	Plan any

	// touched is a lazily allocated bitmap of 4 KiB pages the workload
	// actually accessed; it feeds bloat accounting (Table VI) and the
	// Ingens utilisation-gated promotion daemon.
	touched      []uint64
	touchedPages uint64
}

// bitmap returns the touched bitmap, sized to the VMA's pages and
// cleared on first use. A recycled shell reuses its earlier capacity.
func (v *VMA) bitmap() []uint64 {
	if len(v.touched) == 0 {
		n := int((v.Pages() + 63) / 64)
		v.touched = slices.Grow(v.touched[:0], n)[:n]
		clear(v.touched)
	}
	return v.touched
}

// MarkTouched records an access to the page at index pageIdx (relative
// to Start) and reports whether it is the first touch of that page.
func (v *VMA) MarkTouched(pageIdx uint64) bool {
	if pageIdx >= v.Pages() {
		return false
	}
	touched := v.bitmap()
	w, b := pageIdx/64, pageIdx%64
	if touched[w]&(1<<b) != 0 {
		return false
	}
	touched[w] |= 1 << b
	v.touchedPages++
	return true
}

// MarkTouchedRange records accesses to the n pages starting at pageIdx,
// observably identical to n consecutive MarkTouched calls — the batched
// form the range-fault path uses after a quiet (no-fault) walk.
func (v *VMA) MarkTouchedRange(pageIdx, n uint64) {
	end := pageIdx + n
	if pages := v.Pages(); end > pages {
		end = pages
	}
	if pageIdx >= end {
		return
	}
	touched := v.bitmap()
	// Word-at-a-time: OR a mask per word and popcount the newly set
	// bits, instead of a test-and-set per page.
	set := func(w, mask uint64) {
		if add := mask &^ touched[w]; add != 0 {
			touched[w] |= add
			v.touchedPages += uint64(bits.OnesCount64(add))
		}
	}
	i := pageIdx
	if r := i % 64; r != 0 {
		span := 64 - r
		if span > end-i {
			span = end - i
		}
		set(i/64, (1<<span-1)<<r)
		i += span
	}
	for ; i+64 <= end; i += 64 {
		set(i/64, ^uint64(0))
	}
	if i < end {
		set(i/64, 1<<(end-i)-1)
	}
}

// TouchedPages returns the number of distinct 4 KiB pages accessed.
func (v *VMA) TouchedPages() uint64 { return v.touchedPages }

// RegionTouched counts touched pages within [pageIdx, pageIdx+n), the
// utilisation signal Ingens promotion uses. It popcounts whole bitmap
// words: the Ingens daemon probes every 2 MiB region of every VMA each
// epoch, so the page-at-a-time scan this replaces dominated whole
// sweeps under daemon-heavy policies.
func (v *VMA) RegionTouched(pageIdx, n uint64) uint64 {
	if len(v.touched) == 0 {
		return 0
	}
	end := pageIdx + n
	if pages := v.Pages(); end > pages {
		end = pages
	}
	if pageIdx >= end {
		return 0
	}
	var count uint64
	i := pageIdx
	if r := i % 64; r != 0 {
		w := v.touched[i/64] >> r
		span := 64 - r
		if span > end-i {
			span = end - i
			w &= 1<<span - 1
		}
		count += uint64(bits.OnesCount64(w))
		i += span
	}
	for ; i+64 <= end; i += 64 {
		count += uint64(bits.OnesCount64(v.touched[i/64]))
	}
	if i < end {
		count += uint64(bits.OnesCount64(v.touched[i/64] & (1<<(end-i) - 1)))
	}
	return count
}

// New creates a VMA covering [start, start+size). Both must be page
// aligned.
func New(id int, start addr.VirtAddr, size uint64, kind Kind) *VMA {
	return new(VMA).reset(id, start, size, kind)
}

// reset makes v exactly the VMA New(id, start, size, kind) builds,
// keeping only the capacity of its offset FIFO and touched bitmap.
func (v *VMA) reset(id int, start addr.VirtAddr, size uint64, kind Kind) *VMA {
	if !start.PageAligned() || size == 0 || size%addr.PageSize != 0 {
		panic(fmt.Sprintf("vma: bad geometry start=%v size=%d", start, size))
	}
	offsets, touched := v.offsets[:0], v.touched[:0]
	*v = VMA{ID: id, Start: start, End: start.Add(size), Kind: kind, offsets: offsets, touched: touched}
	return v
}

// Size returns the VMA length in bytes.
func (v *VMA) Size() uint64 { return uint64(v.End - v.Start) }

// Pages returns the VMA length in base pages.
func (v *VMA) Pages() uint64 { return v.Size() / addr.PageSize }

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va addr.VirtAddr) bool { return va >= v.Start && va < v.End }

// UnmappedPages returns how many pages are not yet backed — the key CA
// paging uses for sub-VMA re-placement decisions.
func (v *VMA) UnmappedPages() uint64 { return v.Pages() - v.MappedPages }

func (v *VMA) String() string {
	return fmt.Sprintf("vma{%d %s [%v,%v) %dKB}", v.ID, v.Kind, v.Start, v.End, v.Size()/1024)
}

// --- CA paging offset metadata ---

// TrackOffset records a new [faultVA, offset] pair, evicting the oldest
// entry when the FIFO budget is exhausted.
func (v *VMA) TrackOffset(faultVA addr.VirtAddr, off addr.Offset) {
	v.mu.Lock()
	defer v.mu.Unlock()
	budget := v.Budget
	if budget <= 0 {
		budget = MaxOffsets
	}
	if len(v.offsets) >= budget {
		n := copy(v.offsets, v.offsets[len(v.offsets)-budget+1:])
		v.offsets = v.offsets[:n]
	}
	v.offsets = append(v.offsets, OffsetEntry{FaultVA: faultVA, Offset: off})
}

// NearestOffset returns the tracked offset whose fault VA is closest to
// va (§III-C: "CA paging picks the Offset associated with the virtual
// address closest to the currently faulting").
func (v *VMA) NearestOffset(va addr.VirtAddr) (addr.Offset, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.offsets) == 0 {
		return 0, false
	}
	best := v.offsets[0]
	bestDist := dist(best.FaultVA, va)
	for _, e := range v.offsets[1:] {
		if d := dist(e.FaultVA, va); d < bestDist {
			best, bestDist = e, d
		}
	}
	return best.Offset, true
}

// NearestOffsetRun is NearestOffset for the pages from va (page
// aligned) on: it returns the offset NearestOffset(va) picks and for how
// many pages, at most maxPages and va's own included, NearestOffset
// keeps picking that same entry. The answer is closed-form: as the
// faulting address rises, only an entry whose fault VA lies above the
// chosen one's can take over, and it does at the midpoint of the two,
// a tie there going to the earlier FIFO entry.
func (v *VMA) NearestOffsetRun(va addr.VirtAddr, maxPages uint64) (addr.Offset, uint64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.offsets) == 0 || maxPages == 0 {
		return 0, 0, false
	}
	bi := 0
	bestDist := dist(v.offsets[0].FaultVA, va)
	for i, e := range v.offsets[1:] {
		if d := dist(e.FaultVA, va); d < bestDist {
			bi, bestDist = i+1, d
		}
	}
	best := v.offsets[bi].FaultVA
	run := maxPages
	for j, e := range v.offsets {
		if e.FaultVA <= best {
			continue
		}
		// Entry j wins at x once 2x > best+e.FaultVA, or already at
		// 2x == best+e.FaultVA when it is the earlier entry.
		sum := uint64(best) + uint64(e.FaultVA)
		win := sum/2 + 1
		if j < bi {
			win = (sum + 1) / 2
		}
		pages := (win - uint64(va) + addr.PageSize - 1) / addr.PageSize
		run = min(run, pages)
	}
	return v.offsets[bi].Offset, run, true
}

// OffsetCount returns the number of tracked offsets.
func (v *VMA) OffsetCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.offsets)
}

func dist(a, b addr.VirtAddr) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

// TryBeginReplacement attempts to acquire the per-VMA re-placement gate.
// Exactly one concurrent caller wins; it must call EndReplacement.
func (v *VMA) TryBeginReplacement() bool {
	return v.replacing.CompareAndSwap(false, true)
}

// EndReplacement releases the re-placement gate.
func (v *VMA) EndReplacement() { v.replacing.Store(false) }

// --- recycled VMA shells ---

// Pool is a free list of unmapped VMA shells. A kernel keeps one for
// all its processes, so tenant churn reuses VMAs, with their offset
// FIFO and touched bitmap capacity, instead of allocating them. A
// VMA taken from the pool is indistinguishable from a fresh one: every
// field is reset, its Plan included. A pool is not safe for concurrent
// use (one kernel's processes, which one shard owns). The zero Pool is
// empty and ready to use.
type Pool struct {
	free []*VMA
}

// Len returns the number of shells the pool holds.
func (p *Pool) Len() int { return len(p.free) }

// Put takes back a VMA that its set no longer holds; get resets it,
// Plan included, when it is reused. The caller must not use v again.
func (p *Pool) Put(v *VMA) { p.free = append(p.free, v) }

// get hands out the VMA New(id, start, size, kind) would build,
// reusing a pooled shell when it can.
func (p *Pool) get(id int, start addr.VirtAddr, size uint64, kind Kind) *VMA {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v.reset(id, start, size, kind)
	}
	return New(id, start, size, kind)
}

// --- address-space VMA set ---

// Set is an address-ordered collection of non-overlapping VMAs.
type Set struct {
	vmas   []*VMA // sorted by Start
	nextID int
}

// Reset empties the set and restarts its VMA IDs at 1, keeping its
// backing array: the set of a recycled process is then exactly the
// zero Set but for capacity.
func (s *Set) Reset() {
	clear(s.vmas)
	*s = Set{vmas: s.vmas[:0]}
}

// Insert adds a VMA covering [start,start+size), taken from pool (see
// Pool.get). It fails if the range overlaps an existing VMA.
func (s *Set) Insert(pool *Pool, start addr.VirtAddr, size uint64, kind Kind) (*VMA, error) {
	end := start.Add(size)
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > start })
	if i < len(s.vmas) && s.vmas[i].Start < end {
		return nil, fmt.Errorf("vma: [%v,%v) overlaps %v", start, end, s.vmas[i])
	}
	s.nextID++
	v := pool.get(s.nextID, start, size, kind)
	s.vmas = slices.Insert(s.vmas, i, v)
	return v, nil
}

// Remove deletes the VMA (by identity). Reports whether it was present.
// The set keeps no reference to a removed VMA (the vacated slot is
// cleared); the caller hands the VMA to a Pool or drops it, and its Plan
// with it.
func (s *Set) Remove(v *VMA) bool {
	for i, cur := range s.vmas {
		if cur == v {
			s.vmas = slices.Delete(s.vmas, i, i+1)
			return true
		}
	}
	return false
}

// Find returns the VMA containing va, or nil.
func (s *Set) Find(va addr.VirtAddr) *VMA {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > va })
	if i < len(s.vmas) && s.vmas[i].Contains(va) {
		return s.vmas[i]
	}
	return nil
}

// Len returns the number of VMAs.
func (s *Set) Len() int { return len(s.vmas) }

// Visit walks VMAs in address order.
func (s *Set) Visit(fn func(*VMA)) {
	for _, v := range s.vmas {
		fn(v)
	}
}
