package osim

import (
	"runtime"
	"testing"

	"repro/internal/mem/addr"
)

// TestLeafMemoSurvivesNodeRecycling recycles the leaf table behind
// process A's last-leaf memo into process B. The page-table generation
// must keep A from reading or writing through the memo into B's PTE:
// A's next access to the page faults, and B's flags do not move.
func TestLeafMemoSurvivesNodeRecycling(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	a, b := k.NewProcess(0), k.NewProcess(0)
	const size = 4 * addr.PageSize // too small for THP: a 4 KiB leaf
	v, err := a.MMap(size)
	if err != nil {
		t.Fatal(err)
	}
	// The first touch faults the page in; the second fills the memo.
	for i := 0; i < 2; i++ {
		if _, err := a.Touch(v.Start, false); err != nil {
			t.Fatal(err)
		}
	}
	memo := a.lastLeaf
	if memo == nil {
		t.Fatal("A's memo is empty after a faultless touch")
	}
	a.MUnmap(v)

	// B's first VMA lands where A's did, so its leaf table comes back
	// out of the pool from the same slot chain.
	w, err := b.MMap(size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Touch(w.Start, false); err != nil {
		t.Fatal(err)
	}
	pte, _, ok := b.PT.Lookup(w.Start)
	if !ok || pte != memo {
		t.Fatalf("B's leaf (%p) is not the recycled slot A's memo holds (%p)", pte, memo)
	}
	flags := pte.Flags

	if _, ok := a.Translate(v.Start); ok {
		t.Fatal("A still translates its unmapped page through the memo")
	}
	a.nextVA = v.Start // map A's page again at the same address
	v2, err := a.MMap(size)
	if err != nil || v2.Start != v.Start {
		t.Fatalf("remap at %v: %v, %v", v.Start, v2, err)
	}
	faulted, err := a.Touch(v2.Start, true)
	if err != nil || !faulted {
		t.Fatalf("A's touch after recycling: faulted=%v err=%v, want a fault", faulted, err)
	}
	if pte.Flags != flags {
		t.Fatalf("B's PTE flags moved from %v to %v", flags, pte.Flags)
	}
}

// TestWarmKernelRecyclesPageTables checks that once a kernel has run one
// map-touch-exit cycle, later cycles draw every page-table node from the
// kernel's pool: the pool's length is the same after each cycle, and a
// cycle allocates less than one node's worth of bytes.
func TestWarmKernelRecyclesPageTables(t *testing.T) {
	k := newKernel(t, 16, DefaultPolicy{})
	cycle := func() {
		p := k.NewProcess(0)
		// Two 2 MiB leaves and a 4 KiB tail.
		v, err := p.MMap(2*addr.HugeSize + 8*addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		touchRange(t, p, v.Start, v.Size(), addr.PageSize)
		p.Exit()
	}
	cycle()
	pooled := k.ptPool.Len()
	if pooled == 0 {
		t.Fatal("exit returned no nodes to the pool")
	}
	for i := 0; i < 3; i++ {
		cycle()
		if k.ptPool.Len() != pooled {
			t.Fatalf("cycle %d: pool holds %d nodes, want %d", i, k.ptPool.Len(), pooled)
		}
	}

	allocs := testing.AllocsPerRun(20, cycle)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	// A node is 512 child pointers, 512 PTEs and 512 flags, ~12.5 KiB;
	// a cycle that built even one would pass this byte bound. The seven
	// allocations left are process, table and VMA bookkeeping, where a
	// cold kernel adds at least four nodes (root, PUD, PMD, PT).
	const nodeBytes = 512*8 + 512*16 + 512
	if allocs > 7 || bytes >= nodeBytes {
		t.Fatalf("warm cycle: %v allocs, %d B; want at most 7 and under %d B", allocs, bytes, nodeBytes)
	}
}
