// Package frame models the kernel's mem_map: one metadata record per
// physical page frame. CA paging consults this table to decide whether
// the target frame of an offset-directed allocation is free, exactly as
// the paper describes Linux doing through the page struct's _mapcount
// and _count attributes.
//
// Linux also re-purposes a per-page pointer (page->mapping) to point
// free MAX_ORDER blocks at their contiguity-map cluster; here those
// back-pointers live in the contiguity map itself (one slot per
// MAX_ORDER block), keeping the per-frame record at 8 bytes.
package frame

import (
	"fmt"
	"unsafe"

	"repro/internal/mem/addr"
)

// State describes what a frame is currently used for.
type State uint8

const (
	// Free: the frame belongs to a buddy free block (possibly as the
	// interior of a larger block).
	Free State = iota
	// Allocated: the frame backs an anonymous or page-cache mapping.
	Allocated
	// Reserved: the frame is pinned by the "kernel" (hog memory,
	// firmware holes); it never enters the buddy allocator.
	Reserved
)

func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Allocated:
		return "allocated"
	case Reserved:
		return "reserved"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Frame is the per-page metadata record (Linux: struct page). The
// single-byte fields are grouped so the struct packs into 8 bytes (one
// byte is padding) — boot zeroes and fills one record per physical
// page, so record size is machine-construction time. A frame's zone is
// not recorded: zones are PFN ranges (zone.Machine.ZoneOf).
type Frame struct {
	// State is the coarse usage state.
	State State

	// BuddyOrder is meaningful only for the head frame of a free buddy
	// block currently sitting on a free list; -1 otherwise.
	BuddyOrder int8

	// AllocOrder remembers the order the frame's block was allocated
	// with (0 for 4K, 9 for THP), on the head frame of the allocation.
	AllocOrder int8

	// MapCount counts the number of page-table mappings referencing the
	// frame (Linux _mapcount+1 semantics simplified: 0 = unmapped).
	MapCount int32
}

// Table is the machine-wide frame table, indexed by PFN.
type Table struct {
	frames []Frame
	base   addr.PFN // first PFN covered (usually 0)
}

// NewTable creates a frame table covering nframes frames starting at
// base. All frames start Reserved; zones release them to their buddy
// allocators at boot.
func NewTable(base addr.PFN, nframes uint64) *Table {
	t := NewTableUninit(base, nframes)
	Fill(t.frames, Frame{State: Reserved, BuddyOrder: -1, AllocOrder: -1})
	return t
}

// NewTableUninit creates a table whose records are the zero Frame value
// rather than Reserved-filled. For callers that immediately fill every
// covered range themselves — zone.NewMachine covers the whole table
// with per-zone fills — the boot Reserved fill is one full table pass
// of overwritten work.
func NewTableUninit(base addr.PFN, nframes uint64) *Table {
	return &Table{
		frames: make([]Frame, nframes),
		base:   base,
	}
}

// Fill sets every record in fs to f via a doubling copy: boot-time
// table initialisation is memmove-bound instead of paying per-field
// stores for hundreds of thousands of frames.
func Fill(fs []Frame, f Frame) {
	if len(fs) == 0 {
		return
	}
	fs[0] = f
	for n := 1; n < len(fs); n *= 2 {
		copy(fs[n:], fs[:n])
	}
}

// Len returns the number of frames covered.
func (t *Table) Len() uint64 { return uint64(len(t.frames)) }

// Base returns the first covered PFN.
func (t *Table) Base() addr.PFN { return t.base }

// Contains reports whether pfn is within the table.
func (t *Table) Contains(pfn addr.PFN) bool {
	return pfn >= t.base && uint64(pfn-t.base) < uint64(len(t.frames))
}

// Get returns the frame record for pfn. It panics on out-of-range PFNs:
// those indicate a simulator bug, not a recoverable condition.
func (t *Table) Get(pfn addr.PFN) *Frame {
	if !t.Contains(pfn) {
		panic(fmt.Sprintf("frame: PFN %d outside table [%d,%d)", pfn, t.base, uint64(t.base)+t.Len()))
	}
	return &t.frames[pfn-t.base]
}

// Slice returns the records for [pfn, pfn+n) as a slice, bounds-checked
// once. Callers touching every frame of a block (buddy mark loops, boot
// release) use it instead of n Get calls.
func (t *Table) Slice(pfn addr.PFN, n uint64) []Frame {
	if n == 0 {
		return nil
	}
	if !t.Contains(pfn) || !t.Contains(pfn+addr.PFN(n-1)) {
		panic(fmt.Sprintf("frame: range [%d,%d) outside table [%d,%d)", pfn, uint64(pfn)+n, t.base, uint64(t.base)+t.Len()))
	}
	i := uint64(pfn - t.base)
	return t.frames[i : i+n]
}

// IsFree reports whether the frame is free (available to the allocator).
func (t *Table) IsFree(pfn addr.PFN) bool {
	return t.Contains(pfn) && t.Get(pfn).State == Free
}

// RangeFree reports whether all npages frames starting at pfn are free.
// Bounds are checked once; the scan itself is a straight slice walk.
func (t *Table) RangeFree(pfn addr.PFN, npages uint64) bool {
	if !t.Contains(pfn) || !t.Contains(pfn+addr.PFN(npages-1)) {
		return false
	}
	i := uint64(pfn - t.base)
	for j := range t.frames[i : i+npages] {
		if t.frames[i+uint64(j)].State != Free {
			return false
		}
	}
	return true
}

// Fold returns the bitwise OR and AND of the 64 records of fw, field by
// field: or.State is the OR of their states, and.MapCount the AND of
// their map counts, and so on. It folds each record as one 8-byte word,
// four independent lanes per operation so the loop does not serialise
// on one accumulator, and reads the two results back through a Frame
// view of the folded words. OR and AND act on every bit alike, so the
// byte order of the words never matters; the fields come back exactly
// where the record's layout put them.
func Fold(fw *[64]Frame) (or, and Frame) {
	w := (*[64]uint64)(unsafe.Pointer(fw))
	var o0, o1, o2, o3 uint64
	a0, a1, a2, a3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for i := 0; i < len(w); i += 4 {
		o0, a0 = o0|w[i], a0&w[i]
		o1, a1 = o1|w[i+1], a1&w[i+1]
		o2, a2 = o2|w[i+2], a2&w[i+2]
		o3, a3 = o3|w[i+3], a3&w[i+3]
	}
	o, a := o0|o1|o2|o3, a0&a1&a2&a3
	return *(*Frame)(unsafe.Pointer(&o)), *(*Frame)(unsafe.Pointer(&a))
}

// Fold reads a record as one 8-byte word: the record must be exactly
// that size (a failed build here means a field was added or widened).
var _ [unsafe.Sizeof(Frame{}) - 8]struct{}
var _ [8 - unsafe.Sizeof(Frame{})]struct{}

// CountState counts frames currently in the given state; used by tests
// and fragmentation metrics.
func (t *Table) CountState(s State) uint64 {
	var n uint64
	for i := range t.frames {
		if t.frames[i].State == s {
			n++
		}
	}
	return n
}
