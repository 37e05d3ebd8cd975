package zone

import (
	"slices"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/buddy"
)

func twoZone(t testing.TB) *Machine {
	t.Helper()
	return NewMachine(Config{ZonePages: []uint64{4 * addr.MaxOrderPages, 4 * addr.MaxOrderPages}})
}

func TestMachineGeometry(t *testing.T) {
	m := twoZone(t)
	if len(m.Zones) != 2 {
		t.Fatalf("zones = %d", len(m.Zones))
	}
	if m.TotalPages() != 8*addr.MaxOrderPages {
		t.Fatalf("TotalPages = %d", m.TotalPages())
	}
	if m.FreePages() != m.TotalPages() {
		t.Fatal("fresh machine should be fully free")
	}
	if m.Zones[1].Base != 4*addr.MaxOrderPages {
		t.Fatalf("zone1 base = %d", m.Zones[1].Base)
	}
	if z := m.ZoneOf(4*addr.MaxOrderPages - 1); z.ID != 0 {
		t.Fatal("boundary frame should be zone 0")
	}
	if z := m.ZoneOf(4 * addr.MaxOrderPages); z.ID != 1 {
		t.Fatal("boundary frame should be zone 1")
	}
	if m.ZoneOf(addr.PFN(1<<40)) != nil {
		t.Fatal("out-of-range PFN should map to nil zone")
	}
}

func TestZonePreferenceAndFallback(t *testing.T) {
	m := twoZone(t)
	// Exhaust zone 0.
	for {
		if _, err := m.Zones[0].Buddy.AllocBlock(addr.MaxOrder); err != nil {
			break
		}
	}
	// Preferring zone 0 must fall back to zone 1.
	pfn, err := m.AllocBlock(0, addr.MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Zones[1].Contains(pfn) {
		t.Fatalf("fallback allocation landed at %d, not zone 1", pfn)
	}
}

// TestZonelistOrder pins the zonelist's visiting order: every zone
// once, from the preferred one upward, wrapping to zone 0; an
// out-of-range preference starts at zone 0.
func TestZonelistOrder(t *testing.T) {
	m := NewMachine(Config{ZonePages: []uint64{addr.MaxOrderPages, addr.MaxOrderPages, addr.MaxOrderPages}})
	for _, c := range []struct {
		preferred int
		want      []int
	}{
		{0, []int{0, 1, 2}},
		{1, []int{1, 2, 0}},
		{2, []int{2, 0, 1}},
		{-1, []int{0, 1, 2}},
		{3, []int{0, 1, 2}},
	} {
		var got []int
		m.zonelist(c.preferred, func(z *Zone) bool {
			got = append(got, z.ID)
			return false
		})
		if !slices.Equal(got, c.want) {
			t.Errorf("preferred %d: visited %v, want %v", c.preferred, got, c.want)
		}
	}
}

func TestMachineExhaustion(t *testing.T) {
	m := NewMachine(Config{ZonePages: []uint64{addr.MaxOrderPages}})
	if _, err := m.AllocBlock(0, addr.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocBlock(0, 0); err != buddy.ErrNoMemory {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
}

func TestTargetedAllocRouting(t *testing.T) {
	m := twoZone(t)
	target := addr.PFN(5*addr.MaxOrderPages + 17) // zone 1 interior
	if err := m.AllocBlockAt(target, 0); err != nil {
		t.Fatal(err)
	}
	if m.Zones[1].FreePages() != 4*addr.MaxOrderPages-1 {
		t.Fatal("zone 1 free count wrong")
	}
	m.FreeBlock(target, 0)
	if m.Zones[1].FreePages() != 4*addr.MaxOrderPages {
		t.Fatal("free did not return to zone 1")
	}
	if err := m.AllocBlockAt(addr.PFN(1<<40), 0); err != buddy.ErrNotFree {
		t.Fatalf("out-of-range targeted alloc: %v", err)
	}
}

func TestFreeRangeAcrossZones(t *testing.T) {
	m := twoZone(t)
	// Reserve a run straddling the zone boundary... Reserve is per-zone,
	// so reserve each side, then FreeRange across the boundary.
	boundary := addr.PFN(4 * addr.MaxOrderPages)
	if err := m.Reserve(boundary-100, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(boundary, 100); err != nil {
		t.Fatal(err)
	}
	m.FreeRange(boundary-100, 200)
	if m.FreePages() != m.TotalPages() {
		t.Fatalf("free pages = %d after cross-zone FreeRange", m.FreePages())
	}
}

func TestFindFitFallsBackAcrossZones(t *testing.T) {
	m := twoZone(t)
	// Exhaust zone 0 completely so its contiguity map is empty.
	for {
		if _, err := m.Zones[0].Buddy.AllocBlock(0); err != nil {
			break
		}
	}
	z, start, avail, ok := m.FindFit(0, addr.MaxOrderPages)
	if !ok || z.ID != 1 {
		t.Fatalf("FindFit fell back to zone %v ok=%v", z, ok)
	}
	if start != z.Base || avail != 4*addr.MaxOrderPages {
		t.Fatalf("placement = (%d, %d)", start, avail)
	}
}

func TestFreeBlockHistogram(t *testing.T) {
	m := NewMachine(Config{ZonePages: []uint64{4 * addr.MaxOrderPages}})
	h := m.FreeBlockHistogram()
	if h[4*addr.MaxOrderPages] != 1 {
		t.Fatalf("fresh machine histogram = %v", h)
	}
	// Allocate one 4K page: cluster shrinks, sub-MAX_ORDER blocks appear.
	if _, err := m.AllocBlock(0, 0); err != nil {
		t.Fatal(err)
	}
	h = m.FreeBlockHistogram()
	if h[3*addr.MaxOrderPages] != 1 {
		t.Fatalf("histogram after 4K alloc = %v", h)
	}
	var small uint64
	for size, n := range h {
		if size < addr.MaxOrderPages {
			small += size * n
		}
	}
	if small != addr.MaxOrderPages-1 {
		t.Fatalf("small free pages = %d, want %d", small, addr.MaxOrderPages-1)
	}
}

func TestSortedMaxOrderConfig(t *testing.T) {
	m := NewMachine(Config{ZonePages: []uint64{2 * addr.MaxOrderPages}, SortedMaxOrder: true})
	if !m.Zones[0].Buddy.Sorted() {
		t.Fatal("sorted flag not applied")
	}
	pfn, err := m.AllocBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 0 {
		t.Fatalf("sorted machine first alloc at %d, want 0", pfn)
	}
}

func TestViewSharesZonesWithParent(t *testing.T) {
	m := twoZone(t)
	v := m.View(1)
	if len(v.Zones) != 1 || v.Zones[0] != m.Zones[1] {
		t.Fatal("view must alias the parent's zone objects")
	}
	if v.Frames != m.Frames {
		t.Fatal("view must share the parent's frame table")
	}
	// An allocation through the view is visible to the parent and
	// stays inside the viewed zone.
	pfn, err := v.AllocBlock(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Zones[1].Contains(pfn) {
		t.Fatalf("view allocation landed at %d, outside zone 1", pfn)
	}
	if m.FreePages() != m.TotalPages()-1 {
		t.Fatal("parent free count must reflect view allocations")
	}
	if v.FreePages() != 4*addr.MaxOrderPages-1 {
		t.Fatalf("view free pages = %d", v.FreePages())
	}
	// ZoneOf through the view only resolves viewed zones.
	if v.ZoneOf(0) != nil {
		t.Fatal("view must not resolve frames of unviewed zones")
	}
	if z := v.ZoneOf(pfn); z == nil || z.ID != 1 {
		t.Fatal("view must resolve its own zone")
	}
}

func TestViewNeverExhaustsUnviewedZones(t *testing.T) {
	m := twoZone(t)
	v := m.View(0)
	for {
		if _, err := v.AllocBlock(0, addr.MaxOrder); err != nil {
			break
		}
	}
	if m.Zones[0].FreePages() != 0 {
		t.Fatal("viewed zone should be exhausted")
	}
	if m.Zones[1].FreePages() != 4*addr.MaxOrderPages {
		t.Fatal("view must never touch unviewed zones")
	}
}

func TestViewRecycleIsNoOp(t *testing.T) {
	m := twoZone(t)
	v := m.View(0)
	if _, err := v.AllocBlock(0, 0); err != nil {
		t.Fatal(err)
	}
	v.Recycle() // views have no geometry key; must not enter the pool
	// A fresh machine with the view's shape must not hand back the
	// dirty view state.
	m2 := NewMachine(Config{ZonePages: []uint64{4 * addr.MaxOrderPages}})
	if m2.FreePages() != m2.TotalPages() {
		t.Fatal("recycled view leaked into the machine pool")
	}
}

func TestViewPanicsOnBadIndex(t *testing.T) {
	m := twoZone(t)
	for _, idx := range [][]int{nil, {2}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("View(%v) should panic", idx)
				}
			}()
			m.View(idx...)
		}()
	}
}

// TestAllocNFallsBackAcrossZones pins Machine.AllocN to the
// AllocBlock(preferred, 0) loop when the preferred zone runs dry
// partway: the same frames, zone by zone down the zonelist, and the
// same free lists in every zone.
func TestAllocNFallsBackAcrossZones(t *testing.T) {
	build := func() *Machine {
		m := twoZone(t)
		// Leave zone 1 (the preferred one) every 97th frame free, so
		// the request takes its scattered frames and crosses into
		// zone 0.
		z := m.Zones[1].Buddy
		var scattered []addr.PFN
		for {
			pfn, err := z.AllocBlock(0)
			if err != nil {
				break
			}
			if pfn%97 == 3 {
				scattered = append(scattered, pfn)
			}
		}
		for _, pfn := range scattered {
			z.FreeBlock(pfn, 0)
		}
		return m
	}
	run, loop := build(), build()
	if run.Zones[1].FreePages() == 0 {
		t.Fatal("setup left zone 1 no free frames")
	}
	n := int(run.Zones[1].FreePages()) + 300
	got := make([]addr.PFN, n)
	if placed := run.AllocN(1, got); placed != n {
		t.Fatalf("AllocN placed %d of %d", placed, n)
	}
	for i := range n {
		pfn, err := loop.AllocBlock(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != pfn {
			t.Fatalf("frame %d: AllocN gave %d, loop %d", i, got[i], pfn)
		}
	}
	if !run.Zones[0].Contains(got[n-1]) || !run.Zones[1].Contains(got[0]) {
		t.Fatalf("run did not cross from zone 1 to zone 0: %d .. %d", got[0], got[n-1])
	}
	for zi := range run.Zones {
		var a, b [][2]uint64
		run.Zones[zi].Buddy.VisitFreeBlocks(func(pfn addr.PFN, o int) { a = append(a, [2]uint64{uint64(pfn), uint64(o)}) })
		loop.Zones[zi].Buddy.VisitFreeBlocks(func(pfn addr.PFN, o int) { b = append(b, [2]uint64{uint64(pfn), uint64(o)}) })
		if !slices.Equal(a, b) {
			t.Fatalf("zone %d free lists differ from the loop's", zi)
		}
	}
	// Past exhaustion: AllocN stops at the machine's last free frame.
	rest := make([]addr.PFN, run.FreePages()+5)
	if placed := run.AllocN(0, rest); uint64(placed) != uint64(len(rest))-5 || run.FreePages() != 0 {
		t.Fatalf("exhausting AllocN placed %d of %d, %d left free", placed, len(rest), run.FreePages())
	}
}
