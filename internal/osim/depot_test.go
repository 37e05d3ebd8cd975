package osim

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
)

// TestRecycleReturnsZeroNodes recycles a kernel whose live processes
// map 4 KiB and 2 MiB leaves (a CoW fork and a file mapping among
// them) and holds an exited shell, then builds a table over a new pool
// that draws more nodes than the kernel ever held from the node depot:
// the table walks only its own leaves, looks up nothing where the
// kernel's processes mapped, and its root is empty again once those
// leaves are unmapped. A node handed to the depot with anything of its
// last table left in it shows up as a stale leaf or a live count.
func TestRecycleReturnsZeroNodes(t *testing.T) {
	k := newKernel(t, 32, DefaultPolicy{})
	var old []addr.VirtAddr
	live := func(p *Process, bytes uint64) {
		v, err := p.MMap(bytes)
		if err != nil {
			t.Fatal(err)
		}
		touchRange(t, p, v.Start, v.Size(), addr.PageSize)
		p.PT.Visit(func(l pagetable.Leaf) { old = append(old, l.VA) })
	}
	a := k.NewProcess(0)
	live(a, 3*addr.HugeSize+40*addr.PageSize) // 2 MiB leaves and a 4 KiB tail
	f := k.Cache.CreateFile(64 * addr.PageSize)
	fv, err := a.MMapFile(f, 0, f.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, a, fv.Start, fv.Size(), addr.PageSize)
	a.Fork()
	k.THPEnabled = false
	live(k.NewProcess(0), 2*addr.HugeSize) // 4 KiB leaves only
	gone := k.NewProcess(0)
	live(gone, addr.HugeSize)
	gone.Exit()
	if a.PT.Mapped2M() == 0 || a.PT.Mapped4K() == 0 || len(k.Processes()) != 3 {
		t.Fatal("fixture lacks 2 MiB leaves, 4 KiB leaves or live processes")
	}

	pool := k.ptPool
	k.Recycle()
	if pool.Len() != 0 {
		t.Fatalf("pool holds %d nodes after Recycle, want all in the depot", pool.Len())
	}
	if f.HoldsSlots() {
		t.Fatal("a resident file kept its slot array")
	}

	// A probe leaf in the last page of every 2 MiB region the kernel
	// mapped puts a node from the depot on each old path; then one leaf
	// per GiB over the next 256 GiB takes a PMD and a PT node each:
	// more nodes than the kernel held, so the table drains every node
	// Recycle put on top of the depot.
	q := pagetable.NewWithLevels(4, new(pagetable.Pool))
	probes := map[addr.VirtAddr]bool{}
	for _, va := range old {
		probe := va.HugeDown().Add(addr.HugeSize - addr.PageSize)
		if !probes[probe] {
			probes[probe] = true
			q.Map4K(probe, 1, pagetable.Writable)
		}
	}
	const spread = 256
	for i := addr.VirtAddr(0); i < spread; i++ {
		q.Map4K((512+i)<<30, addr.PFN(i), pagetable.Writable)
	}
	var n int
	q.Visit(func(pagetable.Leaf) { n++ })
	if n != len(probes)+spread {
		t.Fatalf("table built from the depot walks %d leaves, mapped %d", n, len(probes)+spread)
	}
	for _, va := range old {
		if _, _, ok := q.Lookup(va); ok && !probes[va] {
			t.Fatalf("stale translation at %#x", uint64(va))
		}
	}
	q.UnmapRange(0, 1<<48, func(pagetable.Leaf) {})
	if !q.Release() {
		t.Fatal("table root holds a live count after unmapping every leaf")
	}
}
