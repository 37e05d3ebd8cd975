// Package hc emulates virtualized Hybrid TLB Coalescing (vHC, Park et
// al., ISCA'17) far enough to reproduce Table I: counting the anchor
// entries needed to map a footprint. Hybrid coalescing stores coalesced
// translations at *aligned* anchor points spaced every 2^k pages
// (the anchor distance); an anchor entry covers its whole window only
// when the window is contiguously mapped starting at the anchor, so —
// unlike range translations — unaligned contiguity fractures into many
// entries. The OS picks the anchor distance from the process's average
// contiguity; this emulation tries all distances and reports the best,
// a strictly optimistic bound for vHC.
package hc

import (
	"sort"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
)

// EntryCount is the result of the anchor analysis for one distance.
type EntryCount struct {
	// AnchorDistancePages is 2^k.
	AnchorDistancePages uint64
	// EntriesFor99 is the number of translation entries (anchor +
	// regular) needed to map 99% of the footprint, counting greedily
	// by coverage like the paper's Table I.
	EntriesFor99 int
}

// coverages builds the per-entry coverage list (in pages) of hybrid
// coalescing with the given anchor distance over the mappings: fully
// covered aligned windows become one anchor entry covering the whole
// distance; leftover spans fall back to regular page-table entries,
// which — since the mappings are huge-page backed — coalesce no better
// than 2 MiB PTEs (one entry per 2 MiB unit touched, single pages cost
// one entry each).
func coverages(ms []metrics.Mapping, distPages uint64) []uint64 {
	var out []uint64
	emitRegular := func(va addr.VirtAddr, pages uint64) {
		// Count 2 MiB-aligned units touched by [va, va+pages).
		for pages > 0 {
			unitEnd := uint64(va.HugeDown()) + addr.HugeSize
			take := (unitEnd - uint64(va)) / addr.PageSize
			if take > pages {
				take = pages
			}
			out = append(out, take)
			va = va.Add(take * addr.PageSize)
			pages -= take
		}
	}
	for _, m := range ms {
		va := m.VA
		remaining := m.Pages
		for remaining > 0 {
			// The next anchor boundary at or after va.
			anchor := addr.VirtAddr((uint64(va) + distPages*addr.PageSize - 1) &^ (distPages*addr.PageSize - 1))
			if anchor == va && remaining >= distPages {
				// A full window contiguously mapped from its anchor:
				// one anchor entry.
				out = append(out, distPages)
				va = va.Add(distPages * addr.PageSize)
				remaining -= distPages
				continue
			}
			// Pages before the next anchor (or a tail shorter than the
			// window) need regular entries.
			gapPages := uint64(anchor-va) / addr.PageSize
			if gapPages == 0 || gapPages > remaining {
				gapPages = remaining
			}
			emitRegular(va, gapPages)
			va = va.Add(gapPages * addr.PageSize)
			remaining -= gapPages
		}
	}
	return out
}

// entriesFor returns how many largest-coverage-first entries reach the
// coverage fraction of the total footprint.
func entriesFor(cov []uint64, frac float64) int {
	if len(cov) == 0 {
		return 0
	}
	sort.Slice(cov, func(i, j int) bool { return cov[i] > cov[j] })
	var total uint64
	for _, c := range cov {
		total += c
	}
	target := uint64(frac * float64(total))
	var acc uint64
	for i, c := range cov {
		acc += c
		if acc >= target {
			return i + 1
		}
	}
	return len(cov)
}

// BestAnchorCount evaluates anchor distances 2^minK..2^maxK pages and
// returns the distance minimising the 99% entry count — modelling the
// OS's dynamic anchor-distance adjustment at its optimum.
func BestAnchorCount(ms []metrics.Mapping, minK, maxK int) EntryCount {
	best := EntryCount{EntriesFor99: -1}
	for k := minK; k <= maxK; k++ {
		dist := uint64(1) << uint(k)
		n := entriesFor(coverages(ms, dist), 0.99)
		if best.EntriesFor99 < 0 || n < best.EntriesFor99 {
			best = EntryCount{AnchorDistancePages: dist, EntriesFor99: n}
		}
	}
	return best
}
