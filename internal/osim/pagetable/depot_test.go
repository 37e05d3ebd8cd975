package pagetable

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem/addr"
)

// isolateDepot empties the shared node depot for the test and puts its
// nodes back afterwards, so the test sees only the nodes it releases.
// No pagetable test runs in parallel, so nothing else touches the depot
// meanwhile.
func isolateDepot(t *testing.T) {
	depot.Lock()
	saved := depot.nodes
	depot.nodes = nil
	depot.Unlock()
	t.Cleanup(func() {
		depot.Lock()
		depot.nodes = append(depot.nodes, saved...)
		depot.Unlock()
	})
}

// TestScrapReleasesZeroNodes pins the node depot's contract at both
// depths: Scrap of a table with live 4 KiB and 2 MiB leaves and Release
// of its pool hand the depot every node the table and the pool held,
// each one zero, and leave the pool empty; a table over a new pool then
// takes its nodes from the depot and walks only its own leaves.
func TestScrapReleasesZeroNodes(t *testing.T) {
	for _, levels := range []int{4, 5} {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			isolateDepot(t)
			pt := randomMixedTable(rand.New(rand.NewSource(int64(levels))), levels)
			// Free part of the table, so the pool holds spare nodes too.
			pt.UnmapRange(0, 1<<30, func(Leaf) {})
			pool := pt.pool
			if pool.Len() == 0 || pt.MappedPages() == 0 {
				t.Fatal("fixture has no pooled nodes or no live leaves")
			}
			held := len(pt.nodes()) + pool.Len()
			pt.Scrap()
			pool.Release()
			if pool.Len() != 0 {
				t.Fatalf("pool holds %d nodes after Release", pool.Len())
			}
			if len(depot.nodes) != held {
				t.Fatalf("depot holds %d nodes, want the %d the table and pool held", len(depot.nodes), held)
			}
			for i, n := range depot.nodes {
				if *n != (node{}) {
					t.Fatalf("depot node %d is not zero (live %d)", i, n.live)
				}
			}

			q := NewWithLevels(levels, new(Pool))
			want := map[addr.VirtAddr]bool{}
			for r := addr.VirtAddr(0); r < 8; r++ {
				va := r<<30 + r*addr.HugeSize
				q.Map4K(va, addr.PFN(r), Writable)
				want[va] = true
			}
			q.Map2M(addr.VirtAddr(1)<<39, addr.HugePages, Writable)
			want[addr.VirtAddr(1)<<39] = true
			if got := held - len(depot.nodes); got != len(q.nodes()) {
				t.Fatalf("new table took %d nodes from the depot, holds %d", got, len(q.nodes()))
			}
			q.Visit(func(l Leaf) {
				if !want[l.VA] {
					t.Fatalf("stale leaf at %#x", uint64(l.VA))
				}
				delete(want, l.VA)
			})
			if len(want) != 0 {
				t.Fatalf("%d mapped leaves not visited", len(want))
			}
		})
	}
}
