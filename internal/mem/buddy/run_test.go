package buddy

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/trace"
)

// hookEvent is one MAX_ORDER hook call: a block joining (insert) or
// leaving the list.
type hookEvent struct {
	insert bool
	pfn    addr.PFN
}

// buddyState is everything an allocation or a free can change: every
// free list in list order, the frame records, the counters, and the
// MAX_ORDER hook calls so far.
type buddyState struct {
	lists    [][2]uint64
	frames   []frame.Frame
	free     uint64
	counts   [addr.MaxOrder + 1]uint64
	nonEmpty uint32
	muts     uint64
	hooks    []hookEvent
}

func stateOf(b *Buddy, hooks []hookEvent) buddyState {
	s := buddyState{
		frames:   append([]frame.Frame(nil), b.fs...),
		free:     b.freePages,
		counts:   b.perOrderCount,
		nonEmpty: b.nonEmpty,
		muts:     b.muts,
		hooks:    append([]hookEvent(nil), hooks...),
	}
	b.VisitFreeBlocks(func(pfn addr.PFN, order int) {
		s.lists = append(s.lists, [2]uint64{uint64(pfn), uint64(order)})
	})
	return s
}

// agedBuddy builds a 4-block allocator and ages it with a seeded random
// history of allocations (any order, and targeted 4 KiB ones) and
// frees, logging its MAX_ORDER hook calls into *hooks. The same seed
// and sortedness always give the same state; seed 0 gives the pristine
// allocator.
func agedBuddy(t *testing.T, seed int64, sorted bool, hooks *[]hookEvent) *Buddy {
	t.Helper()
	b, _ := newBuddy(t, 4)
	b.SetSorted(sorted)
	b.SetHooks(Hooks{
		MaxOrderInsert: func(pfn addr.PFN) { *hooks = append(*hooks, hookEvent{true, pfn}) },
		MaxOrderRemove: func(pfn addr.PFN) { *hooks = append(*hooks, hookEvent{false, pfn}) },
	})
	type allocation struct {
		pfn   addr.PFN
		order int
	}
	if seed == 0 {
		return b
	}
	rng := rand.New(rand.NewSource(seed))
	var live []allocation
	for step := rng.Intn(200); step > 0; step-- {
		switch op := rng.Intn(4); {
		case op == 0:
			order := rng.Intn(addr.HugeOrder + 1)
			if pfn, err := b.AllocBlock(order); err == nil {
				live = append(live, allocation{pfn, order})
			}
		case op == 1 && len(live) > 0:
			i := rng.Intn(len(live))
			b.FreeBlock(live[i].pfn, live[i].order)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			target := addr.PFN(rng.Intn(4 * addr.MaxOrderPages))
			if b.AllocBlockAt(target, 0) == nil {
				live = append(live, allocation{target, 0})
			}
		}
	}
	return b
}

// allocRunLoop is AllocRunAt's reference: ascending AllocBlockAt(t+i, 0)
// calls over the pages of t's free block, at most n.
func allocRunLoop(t *testing.T, b *Buddy, target addr.PFN, n uint64) uint64 {
	t.Helper()
	head, order, ok := b.findFreeBlock(target)
	if !ok {
		return 0
	}
	n = min(n, uint64(head)+addr.OrderPages(order)-uint64(target))
	for i := range addr.PFN(n) {
		if err := b.AllocBlockAt(target+i, 0); err != nil {
			t.Fatalf("reference loop: AllocBlockAt(%d, 0): %v", target+i, err)
		}
	}
	return n
}

// checkAllocRun runs AllocRunAt(target, n) on one aged allocator and the
// reference loop on a twin, and requires the same count and the same
// state, free-list order included.
func checkAllocRun(t *testing.T, seed int64, sorted bool, target addr.PFN, n uint64) {
	t.Helper()
	var hooksRun, hooksLoop []hookEvent
	run := agedBuddy(t, seed, sorted, &hooksRun)
	loop := agedBuddy(t, seed, sorted, &hooksLoop)
	got := run.AllocRunAt(target, n)
	want := allocRunLoop(t, loop, target, n)
	if got != want {
		t.Fatalf("seed %d sorted %v AllocRunAt(%d, %d) claimed %d, loop %d", seed, sorted, target, n, got, want)
	}
	if !reflect.DeepEqual(stateOf(run, hooksRun), stateOf(loop, hooksLoop)) {
		t.Fatalf("seed %d sorted %v AllocRunAt(%d, %d): state differs from the AllocBlockAt loop", seed, sorted, target, n)
	}
	if err := run.CheckInvariants(); err != nil {
		t.Fatalf("seed %d sorted %v: %v", seed, sorted, err)
	}
}

// TestAllocRunAtMatchesLoop pins AllocRunAt to the ascending
// AllocBlockAt(t+i, 0) loop over random aged states, sorted and
// unsorted MAX_ORDER lists, at random targets (busy ones included) and
// lengths up to past the free block's end.
func TestAllocRunAtMatchesLoop(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		for _, sorted := range []bool{false, true} {
			var hooks []hookEvent
			b := agedBuddy(t, seed, sorted, &hooks)
			rng := rand.New(rand.NewSource(seed * 7919))
			target := addr.PFN(rng.Intn(4 * addr.MaxOrderPages))
			n := uint64(1 + rng.Intn(64))
			if head, order, ok := b.findFreeBlock(target); ok && rng.Intn(3) == 0 {
				// Run to the block's end, or past it.
				n = uint64(head) + addr.OrderPages(order) - uint64(target) + uint64(rng.Intn(2))
			}
			checkAllocRun(t, seed, sorted, target, n)
		}
	}
}

// TestAllocRunAtShapes pins the cases whose free-list effects are
// easiest to get wrong: a whole-block claim (every frame an order-0
// allocation, not one order-k block), a claim leaving a prefix and a
// suffix remainder of the same order (the suffix lands ahead), and a
// claim of a whole MAX_ORDER block (one hook call).
func TestAllocRunAtShapes(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		// Seed 0 leaves four pristine MAX_ORDER blocks, so block
		// geometry is known: the first block is [0, 1024).
		checkAllocRun(t, 0, sorted, 0, addr.MaxOrderPages)
		checkAllocRun(t, 0, sorted, 2, 12)
		checkAllocRun(t, 0, sorted, addr.MaxOrderPages+3, 600)

		var hooks []hookEvent
		b := agedBuddy(t, 0, sorted, &hooks)
		if got := b.AllocRunAt(0, addr.MaxOrderPages); got != addr.MaxOrderPages {
			t.Fatalf("whole block: claimed %d", got)
		}
		for i, f := range b.fs[:addr.MaxOrderPages] {
			if f.State != frame.Allocated || f.AllocOrder != 0 {
				t.Fatalf("whole block: frame %d = %+v, want an order-0 allocation", i, f)
			}
		}
		if len(hooks) != 1 || hooks[0] != (hookEvent{false, 0}) {
			t.Fatalf("whole block: hook calls %v, want one removal of 0", hooks)
		}

		// [2, 14) out of the pristine [0, 1024): remainders [0,2) and
		// [14,16) are both order 1, and the suffix is listed first.
		b = agedBuddy(t, 0, sorted, &hooks)
		b.AllocRunAt(2, 12)
		var order1 []addr.PFN
		b.VisitFreeBlocks(func(pfn addr.PFN, order int) {
			if order == 1 {
				order1 = append(order1, pfn)
			}
		})
		if want := []addr.PFN{14, 0}; !reflect.DeepEqual(order1, want) {
			t.Fatalf("order-1 list %v, want %v (suffix ahead of prefix)", order1, want)
		}
	}
}

// TestFreeRangeMatchesPageFrees pins the equivalence MUnmap's run frees
// rely on: FreeRange's aligned blocks, freed in ascending order, leave
// the same free lists (in list order), frames and hook calls as
// freeing the run page by page in ascending order. Only the mutation
// counter differs (one per block, not per page); it is only ever
// compared for change.
func TestFreeRangeMatchesPageFrees(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		for _, sorted := range []bool{false, true} {
			var hooksRun, hooksPages []hookEvent
			run := agedBuddy(t, seed, sorted, &hooksRun)
			pages := agedBuddy(t, seed, sorted, &hooksPages)
			// A random run of allocated frames: start at any allocated
			// frame, stop at a random length or the first free one.
			var allocated []addr.PFN
			for i, f := range run.fs {
				if f.State == frame.Allocated {
					allocated = append(allocated, addr.PFN(i))
				}
			}
			if len(allocated) == 0 {
				continue
			}
			rng := rand.New(rand.NewSource(seed * 104729))
			start := allocated[rng.Intn(len(allocated))]
			limit := uint64(1 + rng.Intn(3*addr.HugePages))
			var n uint64
			for n < limit && uint64(start)+n < 4*addr.MaxOrderPages && run.fs[uint64(start)+n].State == frame.Allocated {
				n++
			}
			run.FreeRange(start, n)
			for i := range addr.PFN(n) {
				pages.FreeBlock(start+i, 0)
			}
			got, want := stateOf(run, hooksRun), stateOf(pages, hooksPages)
			got.muts, want.muts = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d sorted %v FreeRange(%d, %d): state differs from page-by-page frees", seed, sorted, start, n)
			}
			if err := run.CheckInvariants(); err != nil {
				t.Fatalf("seed %d sorted %v: %v", seed, sorted, err)
			}
		}
	}
}

// TestAllocNMatchesLoop pins AllocN to len(out) AllocBlock(0) calls over
// random aged states, sorted and unsorted MAX_ORDER lists, with counts
// from one frame through several free blocks to past exhaustion: the
// same frames in the same order, and the same state (free lists in list
// order, frame records, free pages, order counts, mutation counter and
// MAX_ORDER hook calls). Every other request is split over two AllocN
// calls, which must compose.
func TestAllocNMatchesLoop(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		for _, sorted := range []bool{false, true} {
			var hooksRun, hooksLoop []hookEvent
			run := agedBuddy(t, seed, sorted, &hooksRun)
			loop := agedBuddy(t, seed, sorted, &hooksLoop)
			rng := rand.New(rand.NewSource(seed * 15485863))
			free := int(run.FreePages())
			var n int
			switch rng.Intn(3) {
			case 0: // inside the first block or a few
				n = 1 + rng.Intn(64)
			case 1: // across several blocks
				n = 1 + rng.Intn(max(free, 1))
			default: // up to and past exhaustion
				n = free + rng.Intn(3)
			}
			got := make([]addr.PFN, n)
			k := n
			if seed%2 == 0 {
				k = rng.Intn(n + 1)
			}
			placed := run.AllocN(got[:k])
			if placed == k {
				placed += run.AllocN(got[k:])
			}
			var want []addr.PFN
			for range n {
				pfn, err := loop.AllocBlock(0)
				if err != nil {
					break
				}
				want = append(want, pfn)
			}
			if placed != len(want) {
				t.Fatalf("seed %d sorted %v AllocN(%d) placed %d frames, loop %d", seed, sorted, n, placed, len(want))
			}
			for i, pfn := range want {
				if got[i] != pfn {
					t.Fatalf("seed %d sorted %v AllocN(%d): frame %d is %d, loop %d", seed, sorted, n, i, got[i], pfn)
				}
			}
			if !reflect.DeepEqual(stateOf(run, hooksRun), stateOf(loop, hooksLoop)) {
				t.Fatalf("seed %d sorted %v AllocN(%d): state differs from the AllocBlock(0) loop", seed, sorted, n)
			}
			if err := run.CheckInvariants(); err != nil {
				t.Fatalf("seed %d sorted %v: %v", seed, sorted, err)
			}
		}
	}
}

// TestRunClaimsTraceOneSplitPerBlock pins the split events of the run
// claims: AllocN and AllocRunAt emit one (zone, head, order) event for
// each free block of order > 0 they take frames from, and none for an
// order-0 block.
func TestRunClaimsTraceOneSplitPerBlock(t *testing.T) {
	b, _ := newBuddy(t, 4)
	tr := trace.New()
	b.SetTracer(tr, 3)
	out := make([]addr.PFN, 3)
	b.AllocN(out) // frames h to h+2 of the first MAX_ORDER block (h, 10)
	h := out[0]
	b.AllocN(out[:1])    // the order-0 remainder, frame h+3
	b.AllocN(out[:2])    // frames h+4 and h+5 of block (h+4, 2)
	b.AllocRunAt(5, 3)   // inside block (0, 10)
	b.AllocRunAt(h+6, 1) // block (h+6, 1), left by the third AllocN
	b.AllocRunAt(h+7, 1) // the order-0 remainder, frame h+7
	want := [][2]uint64{{uint64(h), 10}, {uint64(h) + 4, 2}, {0, 10}, {uint64(h) + 6, 1}}
	var got [][2]uint64
	for _, e := range tr.Events() {
		if e.Kind != trace.EvBuddySplit || e.A != 3 {
			t.Fatalf("unexpected event %+v", e)
		}
		got = append(got, [2]uint64{e.B, e.C})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split events %v, want %v", got, want)
	}
}
