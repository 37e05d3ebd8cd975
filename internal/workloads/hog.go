package workloads

import (
	"math/rand"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
)

// Hog reproduces the external-fragmentation micro-benchmark of §VI-A:
// it pins the given fraction of machine memory in coarse chunks (4 MiB,
// always 2 MiB-aligned but starting at *odd* 2 MiB slots) at random
// positions. This is the regime the paper describes — the memory is
// fragmented "in coarse granularities (>2MB)": the 2 MiB huge-page
// supply stays plentiful (THP/Ingens unaffected), large *aligned*
// blocks become scarce (eager paging collapses), while sizeable
// unaligned free runs survive between chunks — the contiguity CA
// paging harvests.
//
// Returns the pinned extents so callers can release them.
type HogExtent struct {
	PFN   addr.PFN
	Pages uint64
}

// hogChunkPages is the pinned chunk size (4 MiB): starts mid-block and
// spans into the next, ruining two blocks' >2 MiB alignment per chunk
// while leaving their even 2 MiB halves free.
const hogChunkPages = 1024

// Hog pins fraction (0..1) of the machine in randomly placed coarse
// chunks. It is deterministic per rng. Candidate starts are the odd
// 2 MiB slot of every other MAX_ORDER block, so chunks can never merge
// into huge pinned spans.
func Hog(m *zone.Machine, fraction float64, rng *rand.Rand) []HogExtent {
	return hog(m, fraction, rng, 2, hogChunkPages)
}

// HogFine pins fraction (0..1) of the machine in single 2 MiB chunks at
// the odd 2 MiB slot of random MAX_ORDER blocks. Compared to Hog's
// coarse chunks this is the *alignment-selective* ageing pattern: each
// pin destroys its block's >2 MiB alignment while free (unaligned)
// contiguity between pins shrinks only gradually — scattered long-lived
// pages on a machine that has run for a while (Fig. 1b).
func HogFine(m *zone.Machine, fraction float64, rng *rand.Rand) []HogExtent {
	return hog(m, fraction, rng, 1, addr.HugePages)
}

// hog pins chunks of chunkPages at the odd 2 MiB slot of every
// stride-th MAX_ORDER block of each zone, taken in one rng.Shuffle
// order, until fraction of the machine is pinned; a slot it cannot
// reserve is skipped.
func hog(m *zone.Machine, fraction float64, rng *rand.Rand, stride, chunkPages uint64) []HogExtent {
	if fraction <= 0 {
		return nil
	}
	targetPages := uint64(fraction * float64(m.TotalPages()))
	var slots []addr.PFN
	for _, z := range m.Zones {
		for b := uint64(0); b+stride <= z.Pages/addr.MaxOrderPages; b += stride {
			slots = append(slots, z.Base+addr.PFN(b*addr.MaxOrderPages+addr.HugePages))
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var out []HogExtent
	var pinned uint64
	for _, s := range slots {
		if pinned >= targetPages {
			break
		}
		if err := m.Reserve(s, chunkPages); err != nil {
			continue
		}
		out = append(out, HogExtent{PFN: s, Pages: chunkPages})
		pinned += chunkPages
	}
	return out
}

// Unhog releases previously pinned extents.
func Unhog(m *zone.Machine, extents []HogExtent) {
	for _, e := range extents {
		m.FreeRange(e.PFN, e.Pages)
	}
}
