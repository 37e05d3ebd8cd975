package contigmap

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/mem/buddy"
	"repro/internal/mem/frame"
)

func newMapped(t testing.TB, nblocks uint64) (*Map, *buddy.Buddy, *frame.Table) {
	t.Helper()
	n := nblocks * addr.MaxOrderPages
	ft := frame.NewTable(0, n)
	b := buddy.New(ft, 0, n)
	return New(ft, b), b, ft
}

// TestAdjacentZonesShareNoFrameRecords pins zone isolation: a map reads
// only its own zone's frame records, so two zones over one frame table
// can churn their boundary blocks from different goroutines (the
// sharded aging ownership model) without a data race under -race.
func TestAdjacentZonesShareNoFrameRecords(t *testing.T) {
	n := uint64(4 * addr.MaxOrderPages)
	ft := frame.NewTable(0, 2*n)
	left := buddy.New(ft, 0, n)
	right := buddy.New(ft, addr.PFN(n), n)
	New(ft, left)
	New(ft, right)
	churn := func(b *buddy.Buddy, pfn addr.PFN) {
		for i := 0; i < 200; i++ {
			if err := b.AllocBlockAt(pfn, addr.MaxOrder); err != nil {
				t.Error(err)
				return
			}
			b.FreeBlock(pfn, addr.MaxOrder)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); churn(left, addr.PFN(n-addr.MaxOrderPages)) }()
	go func() { defer wg.Done(); churn(right, addr.PFN(n)) }()
	wg.Wait()
}

func TestInitialScanMergesWholeZone(t *testing.T) {
	m, b, _ := newMapped(t, 8)
	// A fresh zone is one fully contiguous run of 8 MAX_ORDER blocks.
	if m.Len() != 1 {
		t.Fatalf("clusters = %d, want 1", m.Len())
	}
	if m.Largest() != 8*addr.MaxOrderPages {
		t.Fatalf("Largest = %d", m.Largest())
	}
	if m.TotalPages() != 8*addr.MaxOrderPages {
		t.Fatalf("TotalPages = %d", m.TotalPages())
	}
	if err := m.CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
}

func TestSplitOnAllocation(t *testing.T) {
	m, b, _ := newMapped(t, 4)
	// Allocate a page inside the second MAX_ORDER block: that block
	// leaves the MAX_ORDER list, splitting the cluster in two.
	if err := b.AllocBlockAt(addr.MaxOrderPages+5, 0); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("clusters = %d, want 2", m.Len())
	}
	if err := m.CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
	var sizes []uint64
	m.Visit(func(c *Cluster) { sizes = append(sizes, c.Blocks) })
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("cluster blocks = %v, want [1 2]", sizes)
	}
}

func TestMergeOnFree(t *testing.T) {
	m, b, _ := newMapped(t, 3)
	// Remove the middle block entirely, then free it back: clusters must
	// re-merge into one.
	mid := addr.PFN(addr.MaxOrderPages)
	if err := b.AllocBlockAt(mid, addr.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("clusters = %d, want 2", m.Len())
	}
	b.FreeBlock(mid, addr.MaxOrder)
	if m.Len() != 1 {
		t.Fatalf("clusters = %d, want 1 after merge", m.Len())
	}
	if m.Largest() != 3*addr.MaxOrderPages {
		t.Fatalf("Largest = %d", m.Largest())
	}
	if err := m.CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
}

func TestShrinkAtEdges(t *testing.T) {
	m, b, _ := newMapped(t, 4)
	// Take the first block: cluster start advances.
	if err := b.AllocBlockAt(0, addr.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("clusters = %d", m.Len())
	}
	var start addr.PFN
	m.Visit(func(c *Cluster) { start = c.Start })
	if start != addr.MaxOrderPages {
		t.Fatalf("start = %d", start)
	}
	// Take the last block: cluster end retreats.
	if err := b.AllocBlockAt(3*addr.MaxOrderPages, addr.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if m.Largest() != 2*addr.MaxOrderPages {
		t.Fatalf("Largest = %d", m.Largest())
	}
	if err := m.CheckInvariants(b); err != nil {
		t.Fatal(err)
	}
}

func TestFindFitBasics(t *testing.T) {
	m, b, _ := newMapped(t, 4)
	start, avail, ok := m.FindFit(addr.MaxOrderPages)
	if !ok || start != 0 || avail != 4*addr.MaxOrderPages {
		t.Fatalf("FindFit = (%d,%d,%v)", start, avail, ok)
	}
	// Request larger than anything: fallback to largest cluster.
	start, avail, ok = m.FindFit(100 * addr.MaxOrderPages)
	if !ok || avail != 4*addr.MaxOrderPages {
		t.Fatalf("oversized FindFit = (%d,%d,%v)", start, avail, ok)
	}
	// Empty map.
	for {
		if _, err := b.AllocBlock(addr.MaxOrder); err != nil {
			break
		}
	}
	if _, _, ok := m.FindFit(1); ok {
		t.Fatal("FindFit on empty map should report !ok")
	}
}

func TestNextFitRoverRotation(t *testing.T) {
	m, b, _ := newMapped(t, 6)
	// Carve three separate clusters of 2 blocks each by allocating
	// nothing — instead split the zone: remove blocks 2 and 5? zone is
	// 6 blocks [0..6). Remove block 2 -> clusters [0,2) and [3,6).
	// Remove block 4 -> [0,2), [3,4), [5,6).
	if err := b.AllocBlockAt(2*addr.MaxOrderPages, addr.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if err := b.AllocBlockAt(4*addr.MaxOrderPages, addr.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("clusters = %d, want 3", m.Len())
	}
	// Next-fit with an address rover: successive equal requests advance
	// through the free space — first consuming cluster 0's two blocks,
	// then moving to the later clusters, then wrapping.
	want := []addr.PFN{
		0,                      // cluster [0,2): start
		addr.MaxOrderPages,     // cluster [0,2): rover advanced inside
		3 * addr.MaxOrderPages, // cluster [3,4)
		5 * addr.MaxOrderPages, // cluster [5,6)
		0,                      // wrap
	}
	for i, w := range want {
		s, _, ok := m.FindFit(addr.MaxOrderPages)
		if !ok || s != w {
			t.Fatalf("request %d placed at %d, want %d", i, s, w)
		}
	}
}

func TestRoverSurvivesClusterRemoval(t *testing.T) {
	m, b, _ := newMapped(t, 4)
	// Select the single big cluster as rover, then destroy it entirely.
	if _, _, ok := m.FindFit(addr.MaxOrderPages); !ok {
		t.Fatal("FindFit failed")
	}
	for i := 0; i < 4; i++ {
		if err := b.AllocBlockAt(addr.PFN(i*addr.MaxOrderPages), addr.MaxOrder); err != nil {
			t.Fatal(err)
		}
	}
	b.FreeBlock(0, addr.MaxOrder)
	start, _, ok := m.FindFit(1)
	if !ok || start != 0 {
		t.Fatalf("FindFit after rover removal = (%d, %v)", start, ok)
	}
}

func TestRandomChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, b, _ := newMapped(t, 6)
		type alloc struct {
			pfn   addr.PFN
			order int
		}
		var live []alloc
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 {
				order := []int{0, addr.HugeOrder, addr.MaxOrder}[rng.Intn(3)]
				if pfn, err := b.AllocBlock(order); err == nil {
					live = append(live, alloc{pfn, order})
				}
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				b.FreeBlock(live[i].pfn, live[i].order)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if step%25 == 0 {
				if err := m.CheckInvariants(b); err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
			}
		}
		for _, a := range live {
			b.FreeBlock(a.pfn, a.order)
		}
		if err := m.CheckInvariants(b); err != nil {
			t.Logf("seed %d final: %v", seed, err)
			return false
		}
		// Fully free zone merges into exactly one cluster.
		if m.Len() != 1 {
			t.Logf("seed %d: %d clusters after full free", seed, m.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFindFitUpdatesUnderChurn(t *testing.T) {
	// FindFit never returns a cluster with stale size after churn.
	m, b, _ := newMapped(t, 4)
	if _, err := b.AllocBlock(0); err != nil { // splits lowest block
		t.Fatal(err)
	}
	start, avail, ok := m.FindFit(4 * addr.MaxOrderPages)
	if !ok {
		t.Fatal("FindFit failed")
	}
	// Only 3 MAX_ORDER blocks remain fully free: the default (unsorted,
	// LIFO) list pops the highest block, so the surviving cluster is
	// [0, 3*MaxOrderPages).
	if avail != 3*addr.MaxOrderPages {
		t.Fatalf("avail = %d, want %d", avail, 3*addr.MaxOrderPages)
	}
	if start != 0 {
		t.Fatalf("start = %d, want 0", start)
	}
}

func BenchmarkHookUpdates(b *testing.B) {
	m, bd, _ := newMapped(b, 16)
	_ = m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := bd.AllocBlock(addr.MaxOrder)
		if err != nil {
			b.Fatal(err)
		}
		bd.FreeBlock(pfn, addr.MaxOrder)
	}
}

func BenchmarkFindFit(b *testing.B) {
	m, bd, _ := newMapped(b, 32)
	// Fragment into ~16 clusters.
	for i := 0; i < 32; i += 2 {
		if err := bd.AllocBlockAt(addr.PFN(i*addr.MaxOrderPages), addr.MaxOrder); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FindFit(addr.MaxOrderPages)
	}
}

// TestCheckInvariantsDetectsCorruption walks every failure branch of the
// map's CheckInvariants by corrupting its internals directly (we are
// in-package), requiring the named error. The borrowed-scratch rewrite
// must keep every one of these teeth.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	// twoClusters yields clusters [0,1024) and [2048,3072) by removing
	// the middle MAX_ORDER block from the free pool.
	twoClusters := func(t *testing.T) (*Map, *buddy.Buddy) {
		t.Helper()
		m, b, _ := newMapped(t, 3)
		if err := b.AllocBlockAt(addr.MaxOrderPages, addr.MaxOrder); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 2 {
			t.Fatalf("fixture has %d clusters, want 2", m.Len())
		}
		return m, b
	}
	tests := []struct {
		name    string
		corrupt func(t *testing.T, m *Map, b *buddy.Buddy)
		want    string
	}{
		{"empty-cluster", func(t *testing.T, m *Map, b *buddy.Buddy) {
			m.head.Blocks = 0
		}, "empty cluster"},
		{"overlapping-clusters", func(t *testing.T, m *Map, b *buddy.Buddy) {
			m.head.next.Start = m.head.End() - addr.MaxOrderPages
		}, "overlaps or unsorted"},
		{"unmerged-adjacent", func(t *testing.T, m *Map, b *buddy.Buddy) {
			m.head.next.Start = m.head.End()
		}, "should have merged"},
		{"block-not-on-list", func(t *testing.T, m *Map, b *buddy.Buddy) {
			// Extend the first cluster over the allocated middle block.
			m.head.Blocks++
		}, "not on MAX_ORDER list"},
		{"stale-back-pointer", func(t *testing.T, m *Map, b *buddy.Buddy) {
			m.frames.Get(m.head.Start).Cluster = 999
		}, "back-pointer"},
		{"coverage-count-drift", func(t *testing.T, m *Map, b *buddy.Buddy) {
			// A cluster vanishes from both views while its block stays
			// on the buddy list: coverage totals no longer agree.
			m.unlink(m.head)
		}, "map covers"},
		{"id-index-mismatch", func(t *testing.T, m *Map, b *buddy.Buddy) {
			m.byID[m.head.id] = m.head.next
		}, "not indexed under its id"},
		{"orphan-indexed-cluster", func(t *testing.T, m *Map, b *buddy.Buddy) {
			m.byID[999] = &Cluster{id: 999, Start: 0, Blocks: 1}
		}, "list has"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, b := twoClusters(t)
			tc.corrupt(t, m, b)
			err := m.CheckInvariants(b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
