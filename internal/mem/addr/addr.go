// Package addr defines the address-space vocabulary shared by every layer
// of the simulator: virtual and physical addresses, page frame numbers,
// page-size constants, and the alignment arithmetic that the buddy
// allocator, page tables, and contiguity machinery all rely on.
//
// The simulator models an x86-64-like machine: 4 KiB base pages, 2 MiB
// huge pages, and a buddy allocator whose largest block is
// 2^MaxOrder base pages (4 MiB with the Linux default MaxOrder = 10
// free-list index, i.e. MAX_ORDER-1 in Linux terms; we follow the paper
// and call the largest tracked block "MAX_ORDER block").
package addr

import "fmt"

// Page geometry. All sizes are in bytes.
const (
	// PageShift is log2 of the base page size (4 KiB).
	PageShift = 12
	// PageSize is the base page size in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits.
	PageMask = PageSize - 1

	// HugeShift is log2 of the huge page size (2 MiB).
	HugeShift = 21
	// HugeSize is the transparent huge page size in bytes.
	HugeSize = 1 << HugeShift
	// HugeMask masks the offset-within-huge-page bits.
	HugeMask = HugeSize - 1

	// HugeOrder is the buddy order of a huge page (512 base pages).
	HugeOrder = HugeShift - PageShift

	// HugePages is the number of base pages in a huge page: the span of
	// a 2 MiB page-table leaf in 4 KiB PTEs. Named so huge-leaf checks
	// read as intent instead of a magic 512.
	HugePages = HugeSize / PageSize

	// MaxOrder is the largest buddy order tracked by the allocator.
	// A MaxOrder block is 2^MaxOrder base pages = 4 MiB, matching the
	// Linux default the paper describes (MAX_ORDER = 11 lists, orders
	// 0..10).
	MaxOrder = 10

	// MaxOrderPages is the number of base pages in a MaxOrder block.
	MaxOrderPages = 1 << MaxOrder

	// MaxOrderSize is the byte size of a MaxOrder block (4 MiB).
	MaxOrderSize = MaxOrderPages * PageSize
)

// VirtAddr is a (guest or host) virtual address.
type VirtAddr uint64

// PhysAddr is a physical address. In virtualized setups the same type is
// used for guest-physical (gPA) and host-physical (hPA) addresses; the
// owning structure disambiguates.
type PhysAddr uint64

// PFN is a physical frame number: PhysAddr >> PageShift.
type PFN uint64

// VPN is a virtual page number: VirtAddr >> PageShift.
type VPN uint64

// PageNumber returns the virtual page number containing v.
func (v VirtAddr) PageNumber() VPN { return VPN(v >> PageShift) }

// PageAligned reports whether v is 4 KiB aligned.
func (v VirtAddr) PageAligned() bool { return v&PageMask == 0 }

// HugeAligned reports whether v is 2 MiB aligned.
func (v VirtAddr) HugeAligned() bool { return v&HugeMask == 0 }

// PageDown rounds v down to a page boundary.
func (v VirtAddr) PageDown() VirtAddr { return v &^ PageMask }

// HugeDown rounds v down to a huge-page boundary.
func (v VirtAddr) HugeDown() VirtAddr { return v &^ HugeMask }

// HugeUp rounds v up to a huge-page boundary.
func (v VirtAddr) HugeUp() VirtAddr { return (v + HugeMask) &^ HugeMask }

// Add returns v + n bytes.
func (v VirtAddr) Add(n uint64) VirtAddr { return v + VirtAddr(n) }

func (v VirtAddr) String() string { return fmt.Sprintf("v0x%x", uint64(v)) }

// Frame returns the frame number containing p.
func (p PhysAddr) Frame() PFN { return PFN(p >> PageShift) }

// PageAligned reports whether p is 4 KiB aligned.
func (p PhysAddr) PageAligned() bool { return p&PageMask == 0 }

// HugeAligned reports whether p is 2 MiB aligned.
func (p PhysAddr) HugeAligned() bool { return p&HugeMask == 0 }

// PageDown rounds p down to a page boundary.
func (p PhysAddr) PageDown() PhysAddr { return p &^ PageMask }

func (p PhysAddr) String() string { return fmt.Sprintf("p0x%x", uint64(p)) }

// Addr returns the physical address of the first byte of the frame.
func (f PFN) Addr() PhysAddr { return PhysAddr(f) << PageShift }

// Addr returns the virtual address of the first byte of the page.
func (n VPN) Addr() VirtAddr { return VirtAddr(n) << PageShift }

// Offset is the paper's central representation of a larger-than-a-page
// contiguous mapping: the common virtual-minus-physical delta shared by
// every page of the mapping. It is a signed quantity carried as the raw
// two's-complement difference so that "physical above virtual" works too.
type Offset uint64

// OffsetOf computes the mapping offset for a (virtual, physical) pair.
func OffsetOf(v VirtAddr, p PhysAddr) Offset { return Offset(uint64(v) - uint64(p)) }

// Target applies the offset to a virtual address, predicting the physical
// address the mapping implies: p = v - offset.
func (o Offset) Target(v VirtAddr) PhysAddr { return PhysAddr(uint64(v) - uint64(o)) }

// TargetPFN is Target truncated to the containing frame.
func (o Offset) TargetPFN(v VirtAddr) PFN { return o.Target(v).Frame() }

// PagesToBytes converts a page count to bytes.
func PagesToBytes(pages uint64) uint64 { return pages << PageShift }

// BytesToPages converts a byte count to pages, rounding up.
func BytesToPages(bytes uint64) uint64 { return (bytes + PageMask) >> PageShift }

// OrderPages returns the number of base pages in a block of the given
// buddy order.
func OrderPages(order int) uint64 { return 1 << uint(order) }

// OrderFor returns the smallest buddy order whose block holds at least
// pages base pages, capped at MaxOrder.
func OrderFor(pages uint64) int {
	order := 0
	for OrderPages(order) < pages && order < MaxOrder {
		order++
	}
	return order
}

// LeafOrder maps a page-table leaf size in base pages (1 or HugePages,
// the only sizes a leaf can have) to the buddy order of the block
// backing it: HugeOrder for a huge leaf, 0 for a base leaf.
func LeafOrder(pages uint64) int {
	if pages == HugePages {
		return HugeOrder
	}
	return 0
}

// AlignedTo reports whether pfn is naturally aligned for the given order.
func AlignedTo(pfn PFN, order int) bool {
	return uint64(pfn)&(OrderPages(order)-1) == 0
}

// BuddyOf returns the buddy frame of the block starting at pfn with the
// given order: the sibling block that, when both free, coalesces with it.
func BuddyOf(pfn PFN, order int) PFN {
	return PFN(uint64(pfn) ^ OrderPages(order))
}

// ParentOf returns the first frame of the order+1 block containing pfn.
func ParentOf(pfn PFN, order int) PFN {
	return PFN(uint64(pfn) &^ (OrderPages(order+1) - 1))
}
