package check

import (
	"fmt"

	"repro/internal/mem/addr"
	"repro/internal/mem/buddy"
	"repro/internal/mem/contigmap"
	"repro/internal/mem/frame"
)

// RefAlloc is the bitmap reference allocator: one bool per page, no
// free lists, no orders, no coalescing — the ground truth the buddy
// allocator's cleverness must agree with. Its free set determines a
// unique canonical buddy decomposition (a block of order o is listed
// iff it is fully free and its order-o+1 parent is not), which a
// correctly coalescing buddy allocator must match list-for-list.
type RefAlloc struct {
	base      addr.PFN
	npages    uint64
	free      []bool
	freePages uint64
}

// NewRefAlloc creates a reference allocator over [base, base+npages),
// all pages free — matching a freshly built buddy.
func NewRefAlloc(base addr.PFN, npages uint64) *RefAlloc {
	r := &RefAlloc{base: base, npages: npages, free: make([]bool, npages)}
	for i := range r.free {
		r.free[i] = true
	}
	r.freePages = npages
	return r
}

// FreePages returns the reference free-page count.
func (r *RefAlloc) FreePages() uint64 { return r.freePages }

// Contains reports whether pfn is inside the managed range.
func (r *RefAlloc) Contains(pfn addr.PFN) bool {
	return pfn >= r.base && uint64(pfn-r.base) < r.npages
}

// RangeFree reports whether [pfn, pfn+n) is inside the range and fully
// free.
func (r *RefAlloc) RangeFree(pfn addr.PFN, n uint64) bool {
	if n == 0 || !r.Contains(pfn) || uint64(pfn-r.base)+n > r.npages {
		return false
	}
	i := uint64(pfn - r.base)
	for j := i; j < i+n; j++ {
		if !r.free[j] {
			return false
		}
	}
	return true
}

// CanAlloc reports whether some naturally aligned fully free block of
// the given order exists. A maximally coalescing buddy allocator can
// satisfy an order-o request exactly when this holds.
func (r *RefAlloc) CanAlloc(order int) bool {
	n := addr.OrderPages(order)
	for p := r.base; uint64(p-r.base)+n <= r.npages; p += addr.PFN(n) {
		if r.RangeFree(p, n) {
			return true
		}
	}
	return false
}

// MarkAllocated flips [pfn, pfn+n) to allocated, failing if any page
// was not free.
func (r *RefAlloc) MarkAllocated(pfn addr.PFN, n uint64) error {
	if !r.RangeFree(pfn, n) {
		return fmt.Errorf("refalloc: [%d,%d) not fully free", pfn, uint64(pfn)+n)
	}
	i := uint64(pfn - r.base)
	for j := i; j < i+n; j++ {
		r.free[j] = false
	}
	r.freePages -= n
	return nil
}

// MarkFree flips [pfn, pfn+n) to free, failing on double frees.
func (r *RefAlloc) MarkFree(pfn addr.PFN, n uint64) error {
	if n == 0 || !r.Contains(pfn) || uint64(pfn-r.base)+n > r.npages {
		return fmt.Errorf("refalloc: [%d,%d) out of range", pfn, uint64(pfn)+n)
	}
	i := uint64(pfn - r.base)
	for j := i; j < i+n; j++ {
		if r.free[j] {
			return fmt.Errorf("refalloc: double free of %d", uint64(r.base)+j)
		}
		r.free[j] = true
	}
	r.freePages += n
	return nil
}

// CanonicalCounts computes, per order, how many blocks a maximally
// coalescing buddy allocator would hold for this free set: recursing
// from MAX_ORDER blocks down, a fully free aligned block is counted at
// the highest order at which its parent is not fully free.
func (r *RefAlloc) CanonicalCounts() [addr.MaxOrder + 1]uint64 {
	var counts [addr.MaxOrder + 1]uint64
	var rec func(pfn addr.PFN, order int)
	rec = func(pfn addr.PFN, order int) {
		if r.RangeFree(pfn, addr.OrderPages(order)) {
			counts[order]++
			return
		}
		if order == 0 {
			return
		}
		half := addr.PFN(addr.OrderPages(order - 1))
		rec(pfn, order-1)
		rec(pfn+half, order-1)
	}
	for p := r.base; uint64(p-r.base) < r.npages; p += addr.MaxOrderPages {
		rec(p, addr.MaxOrder)
	}
	return counts
}

// Diff cross-checks the buddy allocator against the reference: free
// page totals, per-order free-list counts against the canonical
// decomposition, and that every listed block is genuinely free (which,
// with the totals matching, makes the free sets equal).
func (r *RefAlloc) Diff(b *buddy.Buddy) error {
	if got, want := b.FreePages(), r.freePages; got != want {
		return fmt.Errorf("free pages: buddy %d, reference %d", got, want)
	}
	canon := r.CanonicalCounts()
	for o := 0; o <= addr.MaxOrder; o++ {
		if got, want := b.FreeBlocks(o), canon[o]; got != want {
			return fmt.Errorf("order-%d free blocks: buddy %d, canonical %d", o, got, want)
		}
	}
	var bad error
	var listedPages uint64
	b.VisitFreeBlocks(func(pfn addr.PFN, order int) {
		n := addr.OrderPages(order)
		listedPages += n
		if bad == nil && !addr.AlignedTo(pfn, order) {
			bad = fmt.Errorf("listed order-%d block %d misaligned", order, pfn)
		}
		if bad == nil && !r.RangeFree(pfn, n) {
			bad = fmt.Errorf("listed order-%d block %d not free in reference", order, pfn)
		}
	})
	if bad != nil {
		return bad
	}
	if listedPages != r.freePages {
		return fmt.Errorf("listed blocks cover %d pages, reference frees %d", listedPages, r.freePages)
	}
	return nil
}

// BuddyDiffer drives a real buddy allocator (with an attached
// contiguity map, as zones wire it) and the bitmap reference through
// one op stream, checking success/failure agreement on every op and
// full free-set equality periodically.
type BuddyDiffer struct {
	Frames *frame.Table
	B      *buddy.Buddy
	Contig *contigmap.Map
	Ref    *RefAlloc

	allocs []buddyAlloc // outstanding AllocBlock/AllocBlockAt results
	pins   []buddyPin   // outstanding Reserve extents
	steps  int
}

type buddyAlloc struct {
	pfn   addr.PFN
	order int
}

type buddyPin struct {
	pfn   addr.PFN
	pages uint64
}

// NewBuddyDiffer builds the differential pair over npages (rounded up
// to MAX_ORDER blocks) starting at PFN 0.
func NewBuddyDiffer(npages uint64) *BuddyDiffer {
	npages = (npages + addr.MaxOrderPages - 1) &^ uint64(addr.MaxOrderPages-1)
	if npages == 0 {
		npages = addr.MaxOrderPages
	}
	ft := frame.NewTable(0, npages)
	b := buddy.New(ft, 0, npages)
	return &BuddyDiffer{
		Frames: ft,
		B:      b,
		Contig: contigmap.New(b),
		Ref:    NewRefAlloc(0, npages),
	}
}

// Step applies one op to both allocators and checks agreement. The op
// kind is folded onto the buddy op vocabulary, so Machine op streams
// and dedicated buddy streams share one decoder.
func (d *BuddyDiffer) Step(op Op) error {
	d.steps++
	r := newPRNG(op, uint64(op.Kind))
	switch uint64(op.Kind) % 5 {
	case 0: // AllocBlock
		order := int(r.intn(addr.MaxOrder + 1))
		pfn, err := d.B.AllocBlock(order)
		if err != nil {
			if d.Ref.CanAlloc(order) {
				return fmt.Errorf("step %d: AllocBlock(%d) failed but reference has an aligned free block", d.steps, order)
			}
			break
		}
		if !addr.AlignedTo(pfn, order) {
			return fmt.Errorf("step %d: AllocBlock(%d) returned misaligned %d", d.steps, order, pfn)
		}
		if err := d.Ref.MarkAllocated(pfn, addr.OrderPages(order)); err != nil {
			return fmt.Errorf("step %d: AllocBlock(%d) -> %d: %w", d.steps, order, pfn, err)
		}
		d.allocs = append(d.allocs, buddyAlloc{pfn, order})
	case 1: // AllocBlockAt
		order := int(r.intn(addr.MaxOrder + 1))
		n := addr.OrderPages(order)
		pfn := addr.PFN(r.intn(d.Ref.npages)) &^ addr.PFN(n-1)
		want := d.Ref.RangeFree(pfn, n)
		err := d.B.AllocBlockAt(pfn, order)
		if (err == nil) != want {
			return fmt.Errorf("step %d: AllocBlockAt(%d, order %d) err=%v, reference free=%v", d.steps, pfn, order, err, want)
		}
		if err == nil {
			if err := d.Ref.MarkAllocated(pfn, n); err != nil {
				return err
			}
			d.allocs = append(d.allocs, buddyAlloc{pfn, order})
		}
	case 2: // FreeBlock of an outstanding allocation
		if len(d.allocs) == 0 {
			break
		}
		i := r.intn(uint64(len(d.allocs)))
		a := d.allocs[i]
		d.allocs = append(d.allocs[:i], d.allocs[i+1:]...)
		d.B.FreeBlock(a.pfn, a.order)
		if err := d.Ref.MarkFree(a.pfn, addr.OrderPages(a.order)); err != nil {
			return fmt.Errorf("step %d: FreeBlock(%d, %d): %w", d.steps, a.pfn, a.order, err)
		}
	case 3: // Reserve an arbitrary run
		pages := 1 + r.intn(3*addr.MaxOrderPages/2)
		pfn := addr.PFN(r.intn(d.Ref.npages))
		want := d.Ref.RangeFree(pfn, pages)
		err := d.B.Reserve(pfn, pages)
		if (err == nil) != want {
			return fmt.Errorf("step %d: Reserve(%d, %d) err=%v, reference free=%v", d.steps, pfn, pages, err, want)
		}
		if err == nil {
			if err := d.Ref.MarkAllocated(pfn, pages); err != nil {
				return err
			}
			d.pins = append(d.pins, buddyPin{pfn, pages})
		}
	case 4: // FreeRange of an outstanding reservation
		if len(d.pins) == 0 {
			break
		}
		i := r.intn(uint64(len(d.pins)))
		p := d.pins[i]
		d.pins = append(d.pins[:i], d.pins[i+1:]...)
		d.B.FreeRange(p.pfn, p.pages)
		if err := d.Ref.MarkFree(p.pfn, p.pages); err != nil {
			return fmt.Errorf("step %d: FreeRange(%d, %d): %w", d.steps, p.pfn, p.pages, err)
		}
	}
	// Cheap per-step agreement; the expensive set equality runs
	// periodically and at Check.
	if got, want := d.B.FreePages(), d.Ref.FreePages(); got != want {
		return fmt.Errorf("step %d: free pages diverged: buddy %d, reference %d", d.steps, got, want)
	}
	if d.steps%32 == 0 {
		return d.Check()
	}
	return nil
}

// Check runs the full cross-check: free-set equality, canonical
// per-order counts, the buddy's own structural invariants, and the
// contiguity map riding on its MAX_ORDER list.
func (d *BuddyDiffer) Check() error {
	if err := d.Ref.Diff(d.B); err != nil {
		return fmt.Errorf("step %d: %w", d.steps, err)
	}
	if err := d.B.CheckInvariants(); err != nil {
		return fmt.Errorf("step %d: buddy invariants: %w", d.steps, err)
	}
	if err := d.Contig.CheckInvariants(d.B); err != nil {
		return fmt.Errorf("step %d: contigmap invariants: %w", d.steps, err)
	}
	return nil
}
