package buddy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/metrics"
)

// newBuddy creates a small allocator: nblocks MAX_ORDER blocks.
func newBuddy(t testing.TB, nblocks uint64) (*Buddy, *frame.Table) {
	t.Helper()
	n := nblocks * addr.MaxOrderPages
	ft := frame.NewTable(0, n)
	return New(ft, 0, n), ft
}

func TestNewAllFree(t *testing.T) {
	b, ft := newBuddy(t, 4)
	if b.FreePages() != 4*addr.MaxOrderPages {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if b.FreeBlocks(addr.MaxOrder) != 4 {
		t.Fatalf("MAX_ORDER blocks = %d, want 4", b.FreeBlocks(addr.MaxOrder))
	}
	if ft.CountState(frame.Free) != 4*addr.MaxOrderPages {
		t.Fatal("not all frames free")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	ft := frame.NewTable(0, addr.MaxOrderPages*2)
	for _, fn := range []func(){
		func() { New(ft, 1, addr.MaxOrderPages) },   // misaligned base
		func() { New(ft, 0, addr.MaxOrderPages-1) }, // bad size
		func() { New(ft, 0, 0) },                    // empty
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAllocFreeSingle(t *testing.T) {
	b, ft := newBuddy(t, 1)
	pfn, err := b.AllocBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Get(pfn).State != frame.Allocated {
		t.Fatal("allocated frame not marked")
	}
	if b.FreePages() != addr.MaxOrderPages-1 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.FreeBlock(pfn, 0)
	if b.FreePages() != addr.MaxOrderPages {
		t.Fatal("free count after FreeBlock wrong")
	}
	// Full coalescing back to one MAX_ORDER block.
	if b.FreeBlocks(addr.MaxOrder) != 1 {
		t.Fatalf("MAX_ORDER blocks = %d, want 1 after coalesce", b.FreeBlocks(addr.MaxOrder))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocHugeBlock(t *testing.T) {
	b, _ := newBuddy(t, 1)
	pfn, err := b.AllocBlock(addr.HugeOrder)
	if err != nil {
		t.Fatal(err)
	}
	if !addr.AlignedTo(pfn, addr.HugeOrder) {
		t.Fatal("huge block misaligned")
	}
	if b.FreePages() != addr.MaxOrderPages-512 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustion(t *testing.T) {
	b, _ := newBuddy(t, 1)
	var got []addr.PFN
	for {
		pfn, err := b.AllocBlock(addr.MaxOrder)
		if err == ErrNoMemory {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pfn)
	}
	if len(got) != 1 {
		t.Fatalf("allocated %d MAX_ORDER blocks, want 1", len(got))
	}
	if _, err := b.AllocBlock(0); err != ErrNoMemory {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
}

func TestAllocBlockAtTargeted(t *testing.T) {
	b, ft := newBuddy(t, 2)
	// Target a frame in the middle of the second MAX_ORDER block.
	target := addr.PFN(addr.MaxOrderPages + 137)
	if err := b.AllocBlockAt(target, 0); err != nil {
		t.Fatal(err)
	}
	if ft.Get(target).State != frame.Allocated {
		t.Fatal("target not allocated")
	}
	if b.FreePages() != 2*addr.MaxOrderPages-1 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The frame right after the target must still be individually
	// allocatable (split produced usable remainders).
	if err := b.AllocBlockAt(target+1, 0); err != nil {
		t.Fatalf("neighbour allocation failed: %v", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBlockAtHuge(t *testing.T) {
	b, _ := newBuddy(t, 2)
	target := addr.PFN(512) // huge-aligned, inside first MAX_ORDER block
	if err := b.AllocBlockAt(target, addr.HugeOrder); err != nil {
		t.Fatal(err)
	}
	// Re-requesting must fail.
	if err := b.AllocBlockAt(target, addr.HugeOrder); err != ErrNotFree {
		t.Fatalf("want ErrNotFree, got %v", err)
	}
	// Misaligned targeted request must fail.
	if err := b.AllocBlockAt(3, addr.HugeOrder); err == nil {
		t.Fatal("misaligned targeted alloc should fail")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBlockAtOccupied(t *testing.T) {
	b, _ := newBuddy(t, 1)
	pfn, err := b.AllocBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AllocBlockAt(pfn, 0); err != ErrNotFree {
		t.Fatalf("want ErrNotFree for occupied frame, got %v", err)
	}
	// Out of range.
	if err := b.AllocBlockAt(addr.PFN(1<<40), 0); err != ErrNotFree {
		t.Fatalf("want ErrNotFree for out-of-range, got %v", err)
	}
}

func TestCoalescingAcrossOrders(t *testing.T) {
	b, _ := newBuddy(t, 1)
	// Allocate every 4K page, then free them all; the allocator must
	// coalesce back into exactly one MAX_ORDER block.
	pfns := make([]addr.PFN, 0, addr.MaxOrderPages)
	for i := 0; i < addr.MaxOrderPages; i++ {
		pfn, err := b.AllocBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, pfn)
	}
	if b.FreePages() != 0 {
		t.Fatal("expected exhaustion")
	}
	for _, pfn := range pfns {
		b.FreeBlock(pfn, 0)
	}
	if b.FreeBlocks(addr.MaxOrder) != 1 {
		t.Fatalf("MAX_ORDER blocks = %d after full free", b.FreeBlocks(addr.MaxOrder))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveAndFreeRange(t *testing.T) {
	b, ft := newBuddy(t, 2)
	// Reserve an unaligned run crossing the MAX_ORDER boundary.
	start, n := addr.PFN(1000), uint64(100)
	if err := b.Reserve(start, n); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if ft.Get(start+addr.PFN(i)).State != frame.Allocated {
			t.Fatalf("frame %d not allocated", start+addr.PFN(i))
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Overlapping reserve must fail atomically (nothing allocated).
	free := b.FreePages()
	if err := b.Reserve(start+50, 100); err != ErrNotFree {
		t.Fatalf("want ErrNotFree, got %v", err)
	}
	if b.FreePages() != free {
		t.Fatal("failed Reserve changed free count")
	}
	b.FreeRange(start, n)
	if b.FreeBlocks(addr.MaxOrder) != 2 {
		t.Fatalf("MAX_ORDER blocks = %d after FreeRange", b.FreeBlocks(addr.MaxOrder))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedMaxOrderList(t *testing.T) {
	b, _ := newBuddy(t, 8)
	b.SetSorted(true)
	// Punch holes to break blocks apart, then free in random order; the
	// MAX_ORDER list must remain address sorted.
	var held []addr.PFN
	for i := 0; i < 8; i++ {
		pfn, err := b.AllocBlock(addr.MaxOrder)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, pfn)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	for _, pfn := range held {
		b.FreeBlock(pfn, addr.MaxOrder)
		if err := b.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Sorted mode: the next split victim is the lowest block.
	pfn, err := b.AllocBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 0 {
		t.Fatalf("sorted alloc started at %d, want 0", pfn)
	}
}

func TestHooksFireOnMaxOrderTransitions(t *testing.T) {
	b, _ := newBuddy(t, 2)
	var inserts, removes []addr.PFN
	b.SetHooks(Hooks{
		MaxOrderInsert: func(p addr.PFN) { inserts = append(inserts, p) },
		MaxOrderRemove: func(p addr.PFN) { removes = append(removes, p) },
	})
	pfn, err := b.AllocBlock(addr.MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	if len(removes) != 1 || removes[0] != pfn {
		t.Fatalf("removes = %v", removes)
	}
	b.FreeBlock(pfn, addr.MaxOrder)
	if len(inserts) != 1 || inserts[0] != pfn {
		t.Fatalf("inserts = %v", inserts)
	}
	// Splitting a MAX_ORDER block also fires a remove.
	removes = nil
	if _, err := b.AllocBlock(0); err != nil {
		t.Fatal(err)
	}
	if len(removes) != 1 {
		t.Fatalf("split should fire one MAX_ORDER remove, got %d", len(removes))
	}
}

func TestVisitMaxOrder(t *testing.T) {
	b, _ := newBuddy(t, 3)
	var seen []addr.PFN
	b.VisitMaxOrder(func(p addr.PFN) { seen = append(seen, p) })
	if len(seen) != 3 {
		t.Fatalf("visited %d blocks, want 3", len(seen))
	}
}

// TestRandomOpsProperty drives a random alloc/free workload and checks
// invariants throughout — the central property test for the allocator.
func TestRandomOpsProperty(t *testing.T) {
	type allocation struct {
		pfn   addr.PFN
		order int
	}
	f := func(seed int64, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b, _ := newBuddy(t, 4)
		b.SetSorted(sorted)
		var live []allocation
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(4); {
			case op <= 1: // alloc random order
				order := rng.Intn(addr.MaxOrder + 1)
				pfn, err := b.AllocBlock(order)
				if err == nil {
					live = append(live, allocation{pfn, order})
				}
			case op == 2 && len(live) > 0: // free random allocation
				i := rng.Intn(len(live))
				b.FreeBlock(live[i].pfn, live[i].order)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // targeted alloc at random frame
				target := addr.PFN(rng.Intn(4 * addr.MaxOrderPages))
				if err := b.AllocBlockAt(target, 0); err == nil {
					live = append(live, allocation{target, 0})
				}
			}
			if step%50 == 0 {
				if err := b.CheckInvariants(); err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
			}
		}
		// Free everything; must coalesce completely.
		for _, a := range live {
			b.FreeBlock(a.pfn, a.order)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Logf("seed %d final: %v", seed, err)
			return false
		}
		if b.FreeBlocks(addr.MaxOrder) != 4 {
			t.Logf("seed %d: %d MAX_ORDER blocks after full free", seed, b.FreeBlocks(addr.MaxOrder))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFreePagesConservationProperty(t *testing.T) {
	// freePages + allocated == total at all times.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, ft := newBuddy(t, 2)
		for step := 0; step < 100; step++ {
			order := rng.Intn(addr.HugeOrder + 1)
			if _, err := b.AllocBlock(order); err != nil {
				break
			}
		}
		return b.FreePages() == ft.CountState(frame.Free)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree4K(b *testing.B) {
	bd, _ := newBuddy(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := bd.AllocBlock(0)
		if err != nil {
			b.Fatal(err)
		}
		bd.FreeBlock(pfn, 0)
	}
}

func BenchmarkTargetedAlloc(b *testing.B) {
	bd, _ := newBuddy(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := addr.PFN(i % (64 * addr.MaxOrderPages))
		if err := bd.AllocBlockAt(target, 0); err == nil {
			bd.FreeBlock(target, 0)
		}
	}
}

// TestOrderCountsMatchesVisitor pins OrderCounts against the histogram
// metrics.FreeOrderHistogram builds by visiting every free block: the
// incremental counters and the lists must agree after arbitrary churn,
// or snapshot consumers reading the O(orders) counters would silently
// diverge from the free-list truth.
func TestOrderCountsMatchesVisitor(t *testing.T) {
	b, _ := newBuddy(t, 8)
	rng := rand.New(rand.NewSource(42))
	type block struct {
		pfn   addr.PFN
		order int
	}
	var live []block
	check := func() {
		t.Helper()
		hist := metrics.FreeOrderHistogram(b.VisitFreeBlocks)
		if got := b.OrderCounts(); got != hist {
			t.Fatalf("OrderCounts %v != visitor histogram %v", got, hist)
		}
	}
	check() // pristine
	for i := 0; i < 400; i++ {
		if rng.Intn(2) == 0 {
			order := rng.Intn(addr.MaxOrder + 1)
			if pfn, err := b.AllocBlock(order); err == nil {
				live = append(live, block{pfn, order})
			}
		} else if len(live) > 0 {
			j := rng.Intn(len(live))
			b.FreeBlock(live[j].pfn, live[j].order)
			live = append(live[:j], live[j+1:]...)
		}
		if i%40 == 0 {
			check()
		}
	}
	check()
}

// TestCheckInvariantsDetectsCorruption walks every failure branch of
// CheckInvariants by corrupting the allocator's internals directly (we
// are in-package) and requiring the named error. The flat-scratch
// rewrite must keep every one of these teeth.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(t *testing.T, b *Buddy)
		want    string
	}{
		{"misaligned-block", func(t *testing.T, b *Buddy) {
			// Move the odd-addressed order-0 split remainder onto the
			// order-1 list, where its address is misaligned.
			if _, err := b.AllocBlock(0); err != nil {
				t.Fatal(err)
			}
			pfn := b.pfnAt(b.heads[0])
			b.listRemove(pfn, 0)
			b.listInsert(pfn, 1)
		}, "misaligned"},
		{"head-marking-mismatch", func(t *testing.T, b *Buddy) {
			b.fs[b.heads[addr.MaxOrder]].BuddyOrder = -1
		}, "head marking mismatch"},
		{"prev-link-broken", func(t *testing.T, b *Buddy) {
			b.prev[b.heads[addr.MaxOrder]] = 5
		}, "prev-link broken"},
		{"double-covered-frame", func(t *testing.T, b *Buddy) {
			// List an interior frame of the intact MAX_ORDER block at
			// order 0 as well: two listed blocks now cover it.
			b.listInsert(3, 0)
		}, "covered by two free blocks"},
		{"double-cover-whole-word", func(t *testing.T, b *Buddy) {
			// An order-6 block fills word 1 of the intact MAX_ORDER
			// block: the whole-word marking path finds the overlap.
			b.listInsert(64, 6)
		}, "frame 64 covered by two free blocks"},
		{"double-cover-inside-word", func(t *testing.T, b *Buddy) {
			// Two small blocks share frames 12-15 of word 0: the
			// in-word mask path finds the overlap.
			b.listInsert(8, 3)
			b.listInsert(12, 2)
		}, "frame 12 covered by two free blocks"},
		{"listed-but-not-free-word-edge", func(t *testing.T, b *Buddy) {
			// Bit 63 of word 0 and bit 0 of word 1: the lowest wins.
			b.fs[63].State = frame.Allocated
			b.fs[64].State = frame.Allocated
		}, "frame 63 on free list but state allocated"},
		{"listed-but-not-free", func(t *testing.T, b *Buddy) {
			// An interior frame of a listed block flips to Allocated.
			b.fs[1].State = frame.Allocated
		}, "on free list but state"},
		{"uncoalesced-buddies", func(t *testing.T, b *Buddy) {
			pfn, err := b.AllocBlock(0)
			if err != nil {
				t.Fatal(err)
			}
			// Free by hand without the coalescing loop: frame 0 and its
			// buddy 1 end up listed separately at order 0.
			b.markFree(pfn, 0)
			b.listInsert(pfn, 0)
		}, "uncoalesced buddies"},
		{"per-order-count-drift", func(t *testing.T, b *Buddy) {
			b.perOrderCount[0]++
		}, "count 0 != recorded 1"},
		{"non-empty-bit-stale", func(t *testing.T, b *Buddy) {
			b.nonEmpty |= 1 << 3
		}, "non-empty bit"},
		{"free-pages-counter-drift", func(t *testing.T, b *Buddy) {
			b.freePages++
		}, "listed free pages"},
		{"free-but-unlisted", func(t *testing.T, b *Buddy) {
			pfn, err := b.AllocBlock(0)
			if err != nil {
				t.Fatal(err)
			}
			b.fs[pfn].State = frame.Free // free state, never relisted
		}, "free but not on any list"},
		{"sorted-list-out-of-order", func(t *testing.T, b *Buddy) {
			// reset() prepends, so the unsorted 2-block list is
			// descending; flipping the flag without re-sorting is
			// exactly the corruption the check exists for.
			b.sorted = true
		}, "MAX_ORDER list unsorted"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := newBuddy(t, 2)
			tc.corrupt(t, b)
			err := b.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
