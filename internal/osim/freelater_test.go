package osim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
)

// TestFreeLaterMatchesFreeBlock is the per-page reference for the run
// free path MUnmap and DropFile take. It feeds freeLater ascending
// runs, runs with gaps, descending neighbours and runs across the zone
// boundary, flushing at random points, and frees the same frames in
// the same order with FreeBlock on a twin machine. After every flush
// the two machines' free lists, in list order, and frame records must
// be equal.
func TestFreeLaterMatchesFreeBlock(t *testing.T) {
	const zonePages = 4 * addr.MaxOrderPages
	const total = 2 * zonePages
	twin := func() *zone.Machine {
		m := zone.NewMachine(zone.Config{ZonePages: []uint64{zonePages, zonePages}})
		if n := m.AllocN(0, make([]addr.PFN, total)); n != total {
			t.Fatalf("claimed %d of %d frames", n, total)
		}
		return m
	}
	for seed := int64(1); seed <= 20; seed++ {
		runs, pages := twin(), twin()
		k := NewKernel(runs, DefaultPolicy{})
		rng := rand.New(rand.NewSource(seed))
		held := make([]bool, total)
		free := func(pfn addr.PFN) {
			if pfn < total && held[pfn] {
				held[pfn] = false
				k.freeLater(pfn)
				pages.FreeBlock(pfn, 0)
			}
		}
		// Free a random third of the frames on both machines first, so
		// the script frees into fragmented free lists.
		for pfn := range addr.PFN(total) {
			held[pfn] = rng.Intn(3) != 0
			if !held[pfn] {
				runs.FreeBlock(pfn, 0)
				pages.FreeBlock(pfn, 0)
			}
		}
		for step := range 400 {
			start := addr.PFN(rng.Intn(total))
			n := addr.PFN(1 + rng.Intn(48))
			switch step % 4 {
			case 0: // an ascending run
				for i := range n {
					free(start + i)
				}
			case 1: // ascending, with gaps
				for i := addr.PFN(0); i < n; i += 1 + addr.PFN(rng.Intn(3)) {
					free(start + i)
				}
			case 2: // descending neighbours
				for i := n; i > 0; i-- {
					free(start + i - 1)
				}
			case 3: // a run across the zone boundary
				for i := range n {
					free(zonePages - n/2 + i)
				}
			}
			if rng.Intn(3) == 0 {
				k.flushFree()
				compareFreeState(t, seed, step, runs, pages)
			}
			if step%100 == 99 {
				// Claim the free frames back by run on both machines,
				// so later steps free into a fresh layout.
				k.flushFree()
				out, ref := make([]addr.PFN, runs.FreePages()), make([]addr.PFN, pages.FreePages())
				if runs.AllocN(0, out) != len(out) || pages.AllocN(0, ref) != len(ref) || !slices.Equal(out, ref) {
					t.Fatalf("seed %d step %d: the twins claimed different frames", seed, step)
				}
				for _, pfn := range out {
					held[pfn] = true
				}
			}
		}
		k.flushFree()
		compareFreeState(t, seed, -1, runs, pages)
	}
}

// compareFreeState fails unless the two machines hold the same free
// lists, in list order, and the same frame records.
func compareFreeState(t *testing.T, seed int64, step int, a, b *zone.Machine) {
	t.Helper()
	lists := func(m *zone.Machine) [][][2]uint64 {
		var out [][][2]uint64
		for _, z := range m.Zones {
			var l [][2]uint64
			z.Buddy.VisitFreeBlocks(func(pfn addr.PFN, o int) { l = append(l, [2]uint64{uint64(pfn), uint64(o)}) })
			out = append(out, l)
		}
		return out
	}
	if !slices.EqualFunc(lists(a), lists(b), slices.Equal) {
		t.Fatalf("seed %d step %d: free lists differ from freeing page by page", seed, step)
	}
	n := a.TotalPages()
	if !slices.Equal(a.Frames.Slice(0, n), b.Frames.Slice(0, n)) {
		t.Fatalf("seed %d step %d: frame records differ from freeing page by page", seed, step)
	}
}
