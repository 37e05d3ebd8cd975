package addr

import (
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", PageSize)
	}
	if HugeSize != 2<<20 {
		t.Fatalf("HugeSize = %d, want 2MiB", HugeSize)
	}
	if HugeOrder != 9 {
		t.Fatalf("HugeOrder = %d, want 9", HugeOrder)
	}
	if MaxOrderSize != 4<<20 {
		t.Fatalf("MaxOrderSize = %d, want 4MiB", MaxOrderSize)
	}
	if MaxOrderPages != 1024 {
		t.Fatalf("MaxOrderPages = %d, want 1024", MaxOrderPages)
	}
}

func TestVirtAddrRounding(t *testing.T) {
	cases := []struct {
		in               VirtAddr
		down             VirtAddr
		hugeDown, hugeUp VirtAddr
	}{
		{0, 0, 0, 0},
		{1, 0, 0, HugeSize},
		{PageSize, PageSize, 0, HugeSize},
		{PageSize + 5, PageSize, 0, HugeSize},
		{HugeSize, HugeSize, HugeSize, HugeSize},
		{HugeSize - 1, HugeSize - PageSize, 0, HugeSize},
	}
	for _, c := range cases {
		if got := c.in.PageDown(); got != c.down {
			t.Errorf("PageDown(%v) = %v, want %v", c.in, got, c.down)
		}
		if got := c.in.HugeDown(); got != c.hugeDown {
			t.Errorf("HugeDown(%v) = %v, want %v", c.in, got, c.hugeDown)
		}
		if got := c.in.HugeUp(); got != c.hugeUp {
			t.Errorf("HugeUp(%v) = %v, want %v", c.in, got, c.hugeUp)
		}
	}
}

func TestAlignmentPredicates(t *testing.T) {
	if !VirtAddr(0).PageAligned() || !VirtAddr(0).HugeAligned() {
		t.Error("zero should be aligned to everything")
	}
	if VirtAddr(PageSize + 1).PageAligned() {
		t.Error("PageSize+1 should not be page aligned")
	}
	if !VirtAddr(3 * HugeSize).HugeAligned() {
		t.Error("3*HugeSize should be huge aligned")
	}
	if VirtAddr(HugeSize + PageSize).HugeAligned() {
		t.Error("HugeSize+PageSize should not be huge aligned")
	}
	if !PhysAddr(5 * PageSize).PageAligned() {
		t.Error("5*PageSize should be page aligned")
	}
}

func TestPFNRoundTrip(t *testing.T) {
	for _, pfn := range []PFN{0, 1, 511, 512, 123456} {
		if got := pfn.Addr().Frame(); got != pfn {
			t.Errorf("roundtrip %d -> %d", pfn, got)
		}
	}
	for _, vpn := range []VPN{0, 7, 99999} {
		if got := vpn.Addr().PageNumber(); got != vpn {
			t.Errorf("vpn roundtrip %d -> %d", vpn, got)
		}
	}
}

func TestOffsetArithmetic(t *testing.T) {
	v := VirtAddr(0x7f00_0000_0000)
	p := PhysAddr(0x1234_5000)
	o := OffsetOf(v, p)
	if got := o.Target(v); got != p {
		t.Fatalf("Target = %v, want %v", got, p)
	}
	// Contiguity: the same offset maps v+n to p+n for any n.
	for _, n := range []uint64{PageSize, HugeSize, 3*HugeSize + PageSize} {
		want := PhysAddr(uint64(p) + n)
		if got := o.Target(v.Add(n)); got != want {
			t.Errorf("Target(v+%d) = %v, want %v", n, got, want)
		}
	}
}

func TestOffsetPhysicalAboveVirtual(t *testing.T) {
	// Physical address numerically larger than virtual must still work
	// through two's-complement wraparound.
	v := VirtAddr(0x1000)
	p := PhysAddr(0x9999_0000)
	o := OffsetOf(v, p)
	if got := o.Target(v); got != p {
		t.Fatalf("Target = %v, want %v", got, p)
	}
	if got := o.Target(v.Add(PageSize)); got != p+PageSize {
		t.Fatalf("Target+page = %v, want %v", got, p+PageSize)
	}
}

func TestOffsetRoundTripProperty(t *testing.T) {
	f := func(v, p uint64) bool {
		va, pa := VirtAddr(v), PhysAddr(p)
		return OffsetOf(va, pa).Target(va) == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetShiftInvarianceProperty(t *testing.T) {
	// For any delta d, Target(v+d) == Target(v)+d: offsets encode pure
	// translation, independent of alignment.
	f := func(v, p, d uint64) bool {
		va, pa := VirtAddr(v), PhysAddr(p)
		o := OffsetOf(va, pa)
		return o.Target(va.Add(d)) == pa+PhysAddr(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderHelpers(t *testing.T) {
	if OrderPages(0) != 1 || OrderPages(9) != 512 || OrderPages(10) != 1024 {
		t.Fatal("OrderPages wrong")
	}
	cases := []struct {
		pages uint64
		order int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {512, 9}, {513, 10}, {1024, 10},
		{100000, MaxOrder}, // capped
	}
	for _, c := range cases {
		if got := OrderFor(c.pages); got != c.order {
			t.Errorf("OrderFor(%d) = %d, want %d", c.pages, got, c.order)
		}
	}
}

func TestBuddyMath(t *testing.T) {
	// Order-0 buddies are adjacent frames.
	if BuddyOf(0, 0) != 1 || BuddyOf(1, 0) != 0 {
		t.Fatal("order-0 buddies wrong")
	}
	// Order-3 block at 8 has buddy at 0 and parent 0.
	if BuddyOf(8, 3) != 0 {
		t.Fatalf("BuddyOf(8,3) = %d, want 0", BuddyOf(8, 3))
	}
	if ParentOf(8, 3) != 0 {
		t.Fatalf("ParentOf(8,3) = %d, want 0", ParentOf(8, 3))
	}
	if ParentOf(24, 3) != 16 {
		t.Fatalf("ParentOf(24,3) = %d, want 16", ParentOf(24, 3))
	}
}

func TestBuddyInvolutionProperty(t *testing.T) {
	// BuddyOf is an involution, and both buddies share a parent.
	f := func(raw uint64, orderRaw uint8) bool {
		order := int(orderRaw) % MaxOrder
		pfn := PFN(raw &^ (OrderPages(order) - 1)) // align to order
		b := BuddyOf(pfn, order)
		return BuddyOf(b, order) == pfn && ParentOf(pfn, order) == ParentOf(b, order)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedTo(t *testing.T) {
	if !AlignedTo(0, MaxOrder) {
		t.Error("0 aligned to everything")
	}
	if !AlignedTo(512, 9) || AlignedTo(512, 10) {
		t.Error("512 is 2M-aligned but not 4M-aligned")
	}
	if AlignedTo(5, 1) {
		t.Error("5 is not order-1 aligned")
	}
}

func TestBytesPagesConversion(t *testing.T) {
	if PagesToBytes(3) != 3*PageSize {
		t.Fatal("PagesToBytes wrong")
	}
	if BytesToPages(1) != 1 || BytesToPages(PageSize) != 1 || BytesToPages(PageSize+1) != 2 {
		t.Fatal("BytesToPages rounding wrong")
	}
}
