package osim

import (
	"runtime"
	"testing"

	"repro/internal/mem/addr"
)

// TestWarmKernelRecyclesPageTables checks that once a kernel has run one
// map-touch-exit cycle, later cycles draw every page-table node from the
// kernel's pool and the process, table and VMA from its free lists: the
// pool's length is the same after each cycle, and a cycle allocates
// less than one node's worth of bytes.
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
	// a cycle that built even one would pass this byte bound. The one
	// allocation left is the buddy contiguity map's; building the
	// process, its table, its VMA or the VMA's touched bitmap afresh
	// adds one each.
	const nodeBytes = 512*8 + 512*16 + 512
	if allocs > 1 || bytes >= nodeBytes {
		t.Fatalf("warm cycle: %v allocs, %d B; want at most 1 and under %d B", allocs, bytes, nodeBytes)
	}
}
