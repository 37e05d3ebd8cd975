// Package buddy implements a power-of-two buddy allocator equivalent to
// the Linux page allocator the paper builds on: per-order free lists for
// orders 0..addr.MaxOrder, block splitting and buddy coalescing, and two
// extensions CA paging needs:
//
//   - targeted allocation (AllocBlockAt): carve a specific physical block
//     out of whatever free block contains it, used when CA paging steers
//     a fault to Offset-predicted frames;
//   - an optionally address-sorted MAX_ORDER list (SetSorted), the
//     paper's anti-fragmentation optimisation that stops fallback 4 KiB
//     allocations from scattering across (and splitting) distant large
//     free blocks.
//
// The allocator also exposes insert/remove hooks on the MAX_ORDER list,
// which the contiguity map uses to track unaligned free clusters.
package buddy

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/trace"
)

// ErrNoMemory is returned when no free block can satisfy a request.
var ErrNoMemory = errors.New("buddy: out of memory")

// ErrNotFree is returned by targeted allocation when the requested block
// is not (fully) free.
var ErrNotFree = errors.New("buddy: target block not free")

// Hooks receive MAX_ORDER free-list membership changes; the contiguity
// map subscribes to these to maintain its cluster index.
type Hooks struct {
	// MaxOrderInsert is called after a MAX_ORDER block becomes free.
	MaxOrderInsert func(pfn addr.PFN)
	// MaxOrderRemove is called before a MAX_ORDER block leaves the
	// free list (allocation or split).
	MaxOrderRemove func(pfn addr.PFN)
}

// nilLink terminates the intrusive free lists.
const nilLink = int32(-1)

// Buddy is a buddy allocator managing the frame range
// [base, base+npages) within a shared frame table.
type Buddy struct {
	frames *frame.Table
	base   addr.PFN
	npages uint64

	// fs is the frame table's record slice for exactly [base,
	// base+npages), resolved once: the per-operation paths index it
	// directly instead of paying Get's bounds check per record touch.
	fs []frame.Frame

	// Intrusive doubly-linked free lists, one head per order. Links are
	// 32-bit frame indices relative to base (nilLink = none) rather
	// than full PFNs: half the link-array footprint, which is paid as
	// zeroing on every machine construction. Index order equals PFN
	// order, so the sorted-list comparisons work on indices directly.
	// next and prev are only meaningful for frames that are the head of
	// a free block currently on a list.
	heads [addr.MaxOrder + 1]int32
	next  []int32
	prev  []int32

	freePages     uint64
	perOrderCount [addr.MaxOrder + 1]uint64

	// nonEmpty is a bitmap of orders with a non-empty free list: bit o
	// is set iff heads[o] != nilLink. "Smallest free block >= order" is
	// then a TrailingZeros over the shifted bitmap instead of a list
	// scan, and "largest free order" a Len — the fault path asks both
	// on every allocation.
	nonEmpty uint32

	sorted bool
	hooks  Hooks

	// muts counts successful state-changing operations (allocations and
	// frees). Daemon fixed-point memos key on it to detect that a zone's
	// free pool changed between epochs without diffing any state.
	muts uint64

	// tr, when non-nil, receives split/coalesce events tagged with zid
	// (the owning zone's ID). Disabled tracing costs one nil check per
	// split/merge step.
	tr  *trace.Tracer
	zid uint64
}

// New creates a buddy allocator over [base, base+npages). base must be
// MAX_ORDER aligned and npages a multiple of the MAX_ORDER block size so
// that buddy pairs never straddle the managed range. All frames are
// released to the allocator (marked free) immediately.
func New(frames *frame.Table, base addr.PFN, npages uint64) *Buddy {
	checkGeometry(base, npages)
	frame.Fill(frames.Slice(base, npages), frame.Frame{State: frame.Free, BuddyOrder: -1, AllocOrder: -1})
	return NewPrefilled(frames, base, npages)
}

// NewPrefilled is New for callers that have already filled the managed
// range with free records (State Free, BuddyOrder/AllocOrder -1, zero
// MapCount/Cluster) — e.g. a combined fill that also bakes in the zone
// tag. It skips the redundant whole-range Fill New would perform.
func NewPrefilled(frames *frame.Table, base addr.PFN, npages uint64) *Buddy {
	checkGeometry(base, npages)
	b := &Buddy{
		frames: frames,
		base:   base,
		npages: npages,
		fs:     frames.Slice(base, npages),
		next:   make([]int32, npages),
		prev:   make([]int32, npages),
	}
	b.reset()
	return b
}

func checkGeometry(base addr.PFN, npages uint64) {
	if !addr.AlignedTo(base, addr.MaxOrder) {
		panic(fmt.Sprintf("buddy: base %d not MAX_ORDER aligned", base))
	}
	if npages == 0 || npages%addr.MaxOrderPages != 0 {
		panic(fmt.Sprintf("buddy: npages %d not a multiple of MAX_ORDER block", npages))
	}
	if npages >= 1<<31 {
		panic(fmt.Sprintf("buddy: npages %d exceeds 32-bit link index space", npages))
	}
}

// Reset returns the allocator to its pristine post-New state, reusing
// the link arrays (machine pooling). The caller must have re-filled the
// managed range with free records first, exactly as NewPrefilled
// requires. Hooks and tracer are detached; the sorted flag survives
// (it is construction-time configuration) and the mutation counter
// keeps growing (it is monotonic, never compared across resets).
func (b *Buddy) Reset() {
	b.hooks = Hooks{}
	b.tr = nil
	b.reset()
}

// reset rebuilds the free lists from a prefilled frame range.
func (b *Buddy) reset() {
	for o := range b.heads {
		b.heads[o] = nilLink
	}
	b.freePages = 0
	b.perOrderCount = [addr.MaxOrder + 1]uint64{}
	b.nonEmpty = 0
	for pfn := b.base; pfn < b.base+addr.PFN(b.npages); pfn += addr.MaxOrderPages {
		b.listInsert(pfn, addr.MaxOrder)
		b.freePages += addr.MaxOrderPages
	}
}

// SetTracer attaches (or, with nil, detaches) an event tracer; zoneID
// tags this allocator's events when several zones share one tracer.
func (b *Buddy) SetTracer(t *trace.Tracer, zoneID int) {
	b.tr = t
	b.zid = uint64(zoneID)
}

// SetHooks installs MAX_ORDER list observers. Must be called before any
// allocation traffic if the observer needs a complete picture; the
// contiguity map instead performs an initial scan via VisitMaxOrder.
func (b *Buddy) SetHooks(h Hooks) { b.hooks = h }

// SetSorted enables or disables the address-sorted MAX_ORDER list.
// Enabling re-sorts the current list so the invariant holds immediately.
func (b *Buddy) SetSorted(on bool) {
	b.sorted = on
	if !on {
		return
	}
	// Drain and re-insert: the list is short, so selection re-insertion
	// is fine. Hooks are suppressed — membership does not change.
	saved := b.hooks
	b.hooks = Hooks{}
	var blocks []addr.PFN
	for b.heads[addr.MaxOrder] != nilLink {
		pfn := b.pfnAt(b.heads[addr.MaxOrder])
		b.listRemove(pfn, addr.MaxOrder)
		blocks = append(blocks, pfn)
	}
	for _, pfn := range blocks {
		b.listInsert(pfn, addr.MaxOrder)
	}
	b.hooks = saved
}

// Sorted reports whether the MAX_ORDER list is kept address-sorted.
func (b *Buddy) Sorted() bool { return b.sorted }

// Base returns the first managed PFN.
func (b *Buddy) Base() addr.PFN { return b.base }

// Pages returns the number of managed frames.
func (b *Buddy) Pages() uint64 { return b.npages }

// FreePages returns the number of currently free frames.
func (b *Buddy) FreePages() uint64 { return b.freePages }

// Mutations returns a counter of successful allocations and frees. It
// only ever grows; two equal readings bracket a window with no free-pool
// changes in this zone.
func (b *Buddy) Mutations() uint64 { return b.muts }

// FreeBlocks returns the number of free blocks of the given order.
func (b *Buddy) FreeBlocks(order int) uint64 { return b.perOrderCount[order] }

// OrderCounts returns the per-order free-block counts as one array — the
// same numbers FreeBlocks exposes one order at a time, and exactly the
// histogram metrics.FreeOrderHistogram would build by visiting every
// free block. The counters are maintained incrementally by every
// allocation and free (and cross-checked against the lists by
// CheckInvariants), so snapshot consumers read O(orders) state instead
// of walking O(free blocks) lists.
func (b *Buddy) OrderCounts() [addr.MaxOrder + 1]uint64 { return b.perOrderCount }

// Contains reports whether pfn is managed by this allocator.
func (b *Buddy) Contains(pfn addr.PFN) bool {
	return pfn >= b.base && uint64(pfn-b.base) < b.npages
}

// --- free-list primitives ---

func (b *Buddy) idx(pfn addr.PFN) int32 { return int32(pfn - b.base) }

func (b *Buddy) pfnAt(i int32) addr.PFN { return b.base + addr.PFN(i) }

func (b *Buddy) listInsert(pfn addr.PFN, order int) {
	i := b.idx(pfn)
	if b.sorted && order == addr.MaxOrder && b.heads[order] != nilLink {
		// Insertion-sort by physical address. The MAX_ORDER list is
		// short (one entry per 4 MiB of free memory), so the linear
		// walk is cheap; the paper uses neighbour-address recursion
		// for the same effect.
		if i < b.heads[order] {
			b.next[i] = b.heads[order]
			b.prev[i] = nilLink
			b.prev[b.heads[order]] = i
			b.heads[order] = i
		} else {
			cur := b.heads[order]
			for b.next[cur] != nilLink && b.next[cur] < i {
				cur = b.next[cur]
			}
			nxt := b.next[cur]
			b.next[cur] = i
			b.prev[i] = cur
			b.next[i] = nxt
			if nxt != nilLink {
				b.prev[nxt] = i
			}
		}
	} else {
		b.next[i] = b.heads[order]
		b.prev[i] = nilLink
		if b.heads[order] != nilLink {
			b.prev[b.heads[order]] = i
		}
		b.heads[order] = i
	}
	b.fs[i].BuddyOrder = int8(order)
	b.perOrderCount[order]++
	b.nonEmpty |= 1 << order
	if order == addr.MaxOrder && b.hooks.MaxOrderInsert != nil {
		b.hooks.MaxOrderInsert(pfn)
	}
}

func (b *Buddy) listRemove(pfn addr.PFN, order int) {
	if order == addr.MaxOrder && b.hooks.MaxOrderRemove != nil {
		b.hooks.MaxOrderRemove(pfn)
	}
	i := b.idx(pfn)
	if b.prev[i] != nilLink {
		b.next[b.prev[i]] = b.next[i]
	} else {
		b.heads[order] = b.next[i]
	}
	if b.next[i] != nilLink {
		b.prev[b.next[i]] = b.prev[i]
	}
	b.fs[i].BuddyOrder = -1
	b.perOrderCount[order]--
	if b.heads[order] == nilLink {
		b.nonEmpty &^= 1 << order
	}
}

func (b *Buddy) markAllocated(pfn addr.PFN, order int) {
	i := uint64(pfn - b.base)
	fs := b.fs[i : i+addr.OrderPages(order)]
	for i := range fs {
		fs[i].State = frame.Allocated
		fs[i].AllocOrder = -1
	}
	fs[0].AllocOrder = int8(order)
	b.freePages -= addr.OrderPages(order)
}

func (b *Buddy) markFree(pfn addr.PFN, order int) {
	i := uint64(pfn - b.base)
	fs := b.fs[i : i+addr.OrderPages(order)]
	for i := range fs {
		fs[i].State = frame.Free
		fs[i].AllocOrder = -1
		fs[i].MapCount = 0
	}
	b.freePages += addr.OrderPages(order)
}

// --- public allocation API ---

// AllocBlock allocates a block of 2^order pages, splitting a larger
// block if needed. With the sorted MAX_ORDER list enabled, splits carve
// the lowest-addressed large block, concentrating fallback allocations.
func (b *Buddy) AllocBlock(order int) (addr.PFN, error) {
	if order < 0 || order > addr.MaxOrder {
		return 0, fmt.Errorf("buddy: invalid order %d", order)
	}
	avail := b.nonEmpty >> order
	if avail == 0 {
		return 0, ErrNoMemory
	}
	from := order + bits.TrailingZeros32(avail)
	pfn := b.pfnAt(b.heads[from])
	b.listRemove(pfn, from)
	// Split down to the requested order, returning upper halves.
	for o := from; o > order; o-- {
		upper := pfn + addr.PFN(addr.OrderPages(o-1))
		b.listInsert(upper, o-1)
		if b.tr != nil {
			b.tr.Emit(trace.EvBuddySplit, b.zid, uint64(pfn), uint64(o))
		}
	}
	b.markAllocated(pfn, order)
	b.muts++
	return pfn, nil
}

// AllocBlockAt allocates the specific 2^order block starting at pfn,
// which must be order-aligned and fully free. This is the targeted path
// CA paging uses to extend a contiguous mapping: the frame-table check
// plus block split the paper describes in §III-B.
func (b *Buddy) AllocBlockAt(pfn addr.PFN, order int) error {
	if order < 0 || order > addr.MaxOrder {
		return fmt.Errorf("buddy: invalid order %d", order)
	}
	if !addr.AlignedTo(pfn, order) {
		return fmt.Errorf("buddy: PFN %d not aligned for order %d", pfn, order)
	}
	if !b.Contains(pfn) || !b.Contains(pfn+addr.PFN(addr.OrderPages(order))-1) {
		return ErrNotFree
	}
	head, bo, ok := b.findFreeBlock(pfn)
	if !ok || bo < order {
		return ErrNotFree
	}
	// The containing free block must cover the whole requested block;
	// alignment guarantees it does once bo >= order and pfn inside.
	b.listRemove(head, bo)
	for o := bo; o > order; o-- {
		half := addr.PFN(addr.OrderPages(o - 1))
		lower, upper := head, head+half
		if b.tr != nil {
			b.tr.Emit(trace.EvBuddySplit, b.zid, uint64(head), uint64(o))
		}
		if pfn >= upper {
			b.listInsert(lower, o-1)
			head = upper
		} else {
			b.listInsert(upper, o-1)
		}
	}
	b.markAllocated(pfn, order)
	b.muts++
	return nil
}

// AllocRunAt claims up to n pages starting at t from the free block
// holding t, stopping at that block's end, and returns how many it
// claimed: 0 when t is not free. It is the extent form of CA paging's
// targeted 4 KiB allocation, leaving exactly the state of that many
// ascending AllocBlockAt(t+i, 0) calls:
//
//   - every claimed frame is an order-0 allocation (AllocOrder 0), so a
//     claim of a whole block is not AllocBlockAt(head, order);
//   - the block's remainders go onto their lists in the loop's order,
//     the prefix [head, t) first, then the suffix [t+claimed, end). A
//     suffix block therefore lands ahead of a prefix block of the same
//     order; every other list entry keeps its place;
//   - the mutation counter advances once per page, and the MAX_ORDER
//     hooks fire once, when the block leaves its list;
//   - a block of order > 0 emits one split event, not one per halving.
func (b *Buddy) AllocRunAt(t addr.PFN, n uint64) uint64 {
	head, bo, ok := b.findFreeBlock(t)
	if !ok || n == 0 {
		return 0
	}
	b.traceSplit(head, bo)
	end := head + addr.PFN(addr.OrderPages(bo))
	n = min(n, uint64(end-t))
	b.listRemove(head, bo)
	b.insertRun(head, uint64(t-head))
	b.insertRun(t+addr.PFN(n), uint64(end-t)-n)
	rel := uint64(t - b.base)
	fs := b.fs[rel : rel+n]
	for i := range fs {
		fs[i].State = frame.Allocated
		fs[i].AllocOrder = 0
	}
	b.freePages -= n
	b.muts += n
	return n
}

// AllocN fills out with 4 KiB frames and returns how many it placed,
// fewer than len(out) only when the allocator runs dry. It leaves
// exactly the state of len(out) AllocBlock(0) calls. Each such call
// splits the head block of the lowest non-empty order, from, and every
// list below from is empty, so the loop hands that block's frames out
// in ascending order while each lower order holds at most its one
// remainder. AllocN therefore claims min(need, 2^from) frames from the
// block at once, as order-0 allocations, and lists the unclaimed suffix
// by its aligned blocks; the mutation counter advances once per frame
// and the MAX_ORDER hooks fire once, when the block leaves its list.
// Each block of order > 0 it breaks up emits one split event.
func (b *Buddy) AllocN(out []addr.PFN) int {
	done := 0
	for done < len(out) && b.nonEmpty != 0 {
		from := bits.TrailingZeros32(b.nonEmpty)
		head := b.pfnAt(b.heads[from])
		size := addr.OrderPages(from)
		n := min(uint64(len(out)-done), size)
		b.traceSplit(head, from)
		b.listRemove(head, from)
		b.insertRun(head+addr.PFN(n), size-n)
		rel := uint64(head - b.base)
		fs := b.fs[rel : rel+n]
		for i := range fs {
			fs[i].State = frame.Allocated
			fs[i].AllocOrder = 0
			out[done+i] = head + addr.PFN(i)
		}
		b.freePages -= n
		b.muts += n
		done += int(n)
	}
	return done
}

// traceSplit emits the split event of a run claim breaking up the free
// block (head, order); an order-0 block is claimed whole.
func (b *Buddy) traceSplit(head addr.PFN, order int) {
	if b.tr != nil && order > 0 {
		b.tr.Emit(trace.EvBuddySplit, b.zid, uint64(head), uint64(order))
	}
}

// insertRun lists the free run [pfn, pfn+npages) as its aligned blocks,
// lowest address first. Inside one free block that is the run's
// canonical decomposition, one block per order at most.
func (b *Buddy) insertRun(pfn addr.PFN, npages uint64) {
	for npages > 0 {
		o := maxAlignedOrder(pfn, npages)
		b.listInsert(pfn, o)
		pfn += addr.PFN(addr.OrderPages(o))
		npages -= addr.OrderPages(o)
	}
}

// findFreeBlock locates the free block (head, order) containing pfn, if
// the frame is free. Heads are discoverable because only the head of a
// listed block carries BuddyOrder >= 0.
func (b *Buddy) findFreeBlock(pfn addr.PFN) (addr.PFN, int, bool) {
	if !b.Contains(pfn) || b.fs[pfn-b.base].State != frame.Free {
		return 0, 0, false
	}
	for o := 0; o <= addr.MaxOrder; o++ {
		head := addr.PFN(uint64(pfn) &^ (addr.OrderPages(o) - 1))
		if !b.Contains(head) {
			return 0, 0, false
		}
		if b.fs[head-b.base].BuddyOrder == int8(o) {
			return head, o, true
		}
	}
	return 0, 0, false
}

// FreeBlock returns a previously allocated 2^order block to the
// allocator, coalescing with free buddies as far as possible.
func (b *Buddy) FreeBlock(pfn addr.PFN, order int) {
	if !addr.AlignedTo(pfn, order) {
		panic(fmt.Sprintf("buddy: freeing unaligned block %d order %d", pfn, order))
	}
	if !b.Contains(pfn) {
		panic(fmt.Sprintf("buddy: freeing foreign PFN %d", pfn))
	}
	b.markFree(pfn, order)
	for order < addr.MaxOrder {
		bud := addr.BuddyOf(pfn, order)
		if !b.Contains(bud) || b.fs[bud-b.base].BuddyOrder != int8(order) {
			break
		}
		b.listRemove(bud, order)
		pfn = addr.ParentOf(pfn, order)
		order++
		if b.tr != nil {
			b.tr.Emit(trace.EvBuddyCoalesce, b.zid, uint64(pfn), uint64(order))
		}
	}
	b.listInsert(pfn, order)
	b.muts++
}

// Reserve removes an arbitrary page run [pfn, pfn+npages) from the free
// pool, decomposing it into aligned order blocks. Every frame in the run
// must be free. Used by eager pre-allocation and the hog fragmenter.
func (b *Buddy) Reserve(pfn addr.PFN, npages uint64) error {
	if !b.Contains(pfn) || npages == 0 || !b.Contains(pfn+addr.PFN(npages)-1) {
		return ErrNotFree
	}
	if !b.frames.RangeFree(pfn, npages) {
		return ErrNotFree
	}
	cur, left := pfn, npages
	for left > 0 {
		o := maxAlignedOrder(cur, left)
		if err := b.AllocBlockAt(cur, o); err != nil {
			// Cannot happen after the RangeFree check; treat as a
			// simulator invariant violation.
			panic(fmt.Sprintf("buddy: Reserve lost block at %d order %d: %v", cur, o, err))
		}
		cur += addr.PFN(addr.OrderPages(o))
		left -= addr.OrderPages(o)
	}
	return nil
}

// FreeRange releases an arbitrary page run, decomposing it into aligned
// order blocks and coalescing each.
func (b *Buddy) FreeRange(pfn addr.PFN, npages uint64) {
	cur, left := pfn, npages
	for left > 0 {
		o := maxAlignedOrder(cur, left)
		b.FreeBlock(cur, o)
		cur += addr.PFN(addr.OrderPages(o))
		left -= addr.OrderPages(o)
	}
}

// maxAlignedOrder returns the largest order such that cur is aligned and
// the block fits within left pages.
func maxAlignedOrder(cur addr.PFN, left uint64) int {
	o := 0
	for o < addr.MaxOrder &&
		addr.AlignedTo(cur, o+1) &&
		addr.OrderPages(o+1) <= left {
		o++
	}
	return o
}

// VisitMaxOrder calls fn for every block currently on the MAX_ORDER free
// list, in list order.
func (b *Buddy) VisitMaxOrder(fn func(pfn addr.PFN)) {
	for i := b.heads[addr.MaxOrder]; i != nilLink; i = b.next[i] {
		fn(b.pfnAt(i))
	}
}

// VisitFreeBlocks calls fn for every free block on every free list,
// ascending order first, list order within an order. External checkers
// (the differential buddy oracle in internal/check) use it to compare
// the allocator's free set against a reference bitmap.
func (b *Buddy) VisitFreeBlocks(fn func(pfn addr.PFN, order int)) {
	for o := 0; o <= addr.MaxOrder; o++ {
		for i := b.heads[o]; i != nilLink; i = b.next[i] {
			fn(b.pfnAt(i), o)
		}
	}
}

// FragScore summarises external fragmentation in permille: the share
// of free memory NOT sitting in huge-page-or-larger free blocks. 0
// means every free page is promotable contiguity; 1000 means the free
// pool is pure sub-2MiB confetti. Zero when no memory is free (there
// is nothing to fragment).
func (b *Buddy) FragScore() uint64 {
	if b.freePages == 0 {
		return 0
	}
	var huge uint64
	for o := addr.HugeOrder; o <= addr.MaxOrder; o++ {
		huge += b.perOrderCount[o] * addr.OrderPages(o)
	}
	return 1000 - huge*1000/b.freePages
}

// ScratchWords returns the length a borrowed coverage bitset must have
// to cover this allocator's managed range, one bit per frame. The range
// is a whole number of MAX_ORDER blocks, so every word is full.
func (b *Buddy) ScratchWords() int { return int((b.npages + 63) / 64) }

// CheckInvariants validates the allocator's internal consistency: the
// free-list structure (CheckLists) and the coverage rule, that the
// frames the lists cover are exactly the Free-state frames
// (CoverageError, one word of frames at a time). It is exercised by
// tests (including property-based ones) and allocates its own coverage
// bitset; the audit engine calls CheckLists on a reused arena and
// applies the coverage rule inside its own frame sweep instead.
func (b *Buddy) CheckInvariants() error {
	covered := make([]uint64, b.ScratchWords())
	if err := b.CheckLists(covered); err != nil {
		return err
	}
	for w := range covered {
		var free uint64
		for k, f := range b.fs[w<<6 : w<<6+64] {
			if f.State == frame.Free {
				free |= 1 << k
			}
		}
		if err := b.CoverageError(w, covered[w], free); err != nil {
			return err
		}
	}
	return nil
}

// CheckLists validates the free lists without reading the frame
// records' states: per listed block its alignment, head marking, back
// link, and canonical coalescing; per order the recorded count and
// non-empty bit; the free-page counter; and the address order of a
// sorted MAX_ORDER list. It records every listed block's frames in
// covered (one bit per managed frame, at least ScratchWords words),
// which it clears on entry, and reports a frame two listed blocks share.
// Blocks of order 6 and up fill whole words; a smaller block is aligned
// to its size, so it sits inside one word as a mask, and an overlap is
// one word AND either way. On success covered holds the listed
// coverage, ready for CoverageError; on failure its contents are
// unspecified.
func (b *Buddy) CheckLists(covered []uint64) error {
	covered = covered[:b.ScratchWords()]
	clear(covered)
	var listedFree uint64
	for o := 0; o <= addr.MaxOrder; o++ {
		var count uint64
		prev := nilLink
		for i := b.heads[o]; i != nilLink; i = b.next[i] {
			pfn := b.pfnAt(i)
			count++
			if !addr.AlignedTo(pfn, o) {
				return fmt.Errorf("order %d block %d misaligned", o, pfn)
			}
			if b.frames.Get(pfn).BuddyOrder != int8(o) {
				return fmt.Errorf("order %d block %d head marking mismatch", o, pfn)
			}
			if b.prev[i] != prev {
				return fmt.Errorf("order %d block %d prev-link broken", o, pfn)
			}
			if err := b.cover(covered, uint64(i), addr.OrderPages(o)); err != nil {
				return err
			}
			// Canonical coalescing: a listed block's buddy must not
			// also be listed at the same order.
			if o < addr.MaxOrder {
				bud := addr.BuddyOf(pfn, o)
				if b.Contains(bud) && b.frames.Get(bud).BuddyOrder == int8(o) {
					return fmt.Errorf("order %d blocks %d and %d are uncoalesced buddies", o, pfn, bud)
				}
			}
			listedFree += addr.OrderPages(o)
			prev = i
		}
		if count != b.perOrderCount[o] {
			return fmt.Errorf("order %d count %d != recorded %d", o, count, b.perOrderCount[o])
		}
		if has, bit := b.heads[o] != nilLink, b.nonEmpty&(1<<o) != 0; has != bit {
			return fmt.Errorf("order %d non-empty bit %v but list head says %v", o, bit, has)
		}
	}
	if listedFree != b.freePages {
		return fmt.Errorf("listed free pages %d != counter %d", listedFree, b.freePages)
	}
	if b.sorted {
		prev := nilLink
		for i := b.heads[addr.MaxOrder]; i != nilLink; i = b.next[i] {
			if prev != nilLink && i < prev {
				return fmt.Errorf("MAX_ORDER list unsorted: %d after %d", b.pfnAt(i), b.pfnAt(prev))
			}
			prev = i
		}
	}
	return nil
}

// cover marks the n aligned frames starting at index rel in covered,
// reporting the lowest frame already marked by another listed block.
func (b *Buddy) cover(covered []uint64, rel, n uint64) error {
	w := rel >> 6
	if n >= 64 {
		for end := (rel + n) >> 6; w < end; w++ {
			if c := covered[w]; c != 0 {
				return b.doubleCover(w, c)
			}
			covered[w] = ^uint64(0)
		}
		return nil
	}
	mask := (uint64(1)<<n - 1) << (rel & 63)
	if c := covered[w] & mask; c != 0 {
		return b.doubleCover(w, c)
	}
	covered[w] |= mask
	return nil
}

// doubleCover reports the lowest frame of word w set in overlap.
func (b *Buddy) doubleCover(w, overlap uint64) error {
	return fmt.Errorf("frame %d covered by two free blocks", b.base+addr.PFN(w<<6)+addr.PFN(bits.TrailingZeros64(overlap)))
}

// CoverageError applies the coverage rule to word w of the managed
// range (frames [64w, 64w+64) from the base): covered is the word
// CheckLists recorded and free has bit k set iff frame 64w+k is in the
// Free state. Every Free frame must be covered by a listed block and
// every covered frame must be Free. It returns nil when the two words
// agree, and otherwise the error for the lowest frame where they
// differ.
func (b *Buddy) CoverageError(w int, covered, free uint64) error {
	diff := covered ^ free
	if diff == 0 {
		return nil
	}
	k := bits.TrailingZeros64(diff)
	rel := uint64(w)<<6 + uint64(k)
	pfn := b.base + addr.PFN(rel)
	if free&(1<<k) != 0 {
		return fmt.Errorf("frame %d free but not on any list", pfn)
	}
	return fmt.Errorf("frame %d on free list but state %v", pfn, b.fs[rel].State)
}
