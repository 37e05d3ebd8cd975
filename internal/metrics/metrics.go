// Package metrics computes the contiguity statistics the paper's
// evaluation reports: memory-footprint coverage by the N largest
// contiguous mappings (Figs. 1, 7, 8, 10, 12), the number of mappings
// needed to cover 99 % of the footprint, free-block distributions
// (Fig. 9), percentile latencies (Table V), and bloat (Table VI).
//
// A "mapping" here is the paper's Fig. 1a object: a maximal extent of
// virtual pages mapped to consecutive physical pages — independent of
// the page size backing it.
package metrics

import (
	"math"
	"slices"
	"sort"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
)

// Mapping is one contiguous virtual-to-physical extent.
type Mapping struct {
	VA    addr.VirtAddr
	PA    addr.PhysAddr
	Pages uint64
}

// End returns one past the mapping's last virtual byte.
func (m Mapping) End() addr.VirtAddr { return m.VA.Add(m.Pages * addr.PageSize) }

// Offset returns the mapping's translation offset.
func (m Mapping) Offset() addr.Offset { return addr.OffsetOf(m.VA, m.PA) }

// FromPageTable extracts maximal contiguous mappings from a page table
// (the pagemap-based method the paper uses natively).
func FromPageTable(pt *pagetable.Table) []Mapping {
	var out []Mapping
	var cur Mapping
	pt.Visit(func(l pagetable.Leaf) {
		pa := l.PTE.PFN.Addr()
		if cur.Pages > 0 && l.VA == cur.End() && pa == cur.PA+addr.PhysAddr(cur.Pages*addr.PageSize) {
			cur.Pages += l.Pages
			return
		}
		if cur.Pages > 0 {
			out = append(out, cur)
		}
		cur = Mapping{VA: l.VA, PA: pa, Pages: l.Pages}
	})
	if cur.Pages > 0 {
		out = append(out, cur)
	}
	return out
}

// SortBySize orders mappings by size, largest first (stable on VA).
func SortBySize(ms []Mapping) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Pages > ms[j].Pages })
}

// TotalPages sums mapping sizes.
func TotalPages(ms []Mapping) uint64 {
	var n uint64
	for _, m := range ms {
		n += m.Pages
	}
	return n
}

// CoverageTopN returns the fraction (0..1) of the total mapped
// footprint covered by the N largest mappings.
func CoverageTopN(ms []Mapping, n int) float64 {
	total := TotalPages(ms)
	if total == 0 {
		return 0
	}
	sorted := append([]Mapping(nil), ms...)
	SortBySize(sorted)
	var covered uint64
	for i := 0; i < n && i < len(sorted); i++ {
		covered += sorted[i].Pages
	}
	return float64(covered) / float64(total)
}

// MappingsFor covers returns the number of largest-first mappings
// needed to reach the given coverage fraction of the footprint (the
// paper's "number of mappings to cover 99 %").
func MappingsFor(ms []Mapping, coverage float64) int {
	total := TotalPages(ms)
	if total == 0 {
		return 0
	}
	sorted := append([]Mapping(nil), ms...)
	SortBySize(sorted)
	target := uint64(coverage * float64(total))
	var covered uint64
	for i, m := range sorted {
		covered += m.Pages
		if covered >= target {
			return i + 1
		}
	}
	return len(sorted)
}

// Percentile returns the p-quantile (0..1) of a multiset given as a
// count per distinct value, by nearest rank: the value of rank
// int(p*total+0.5)-1, clamped to the multiset, in ascending order.
// Returns 0 for an empty multiset.
func Percentile(counts map[uint64]uint64, p float64) uint64 {
	var total uint64
	xs := make([]uint64, 0, len(counts))
	for x, c := range counts {
		total += c
		xs = append(xs, x)
	}
	if total == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := uint64(min(max(int(p*float64(total)+0.5)-1, 0), int(total)-1))
	var seen uint64
	for _, x := range xs {
		if seen += counts[x]; seen > rank {
			return x
		}
	}
	return xs[len(xs)-1]
}

// GeoMean returns the geometric mean of xs (0 for empty; zeros clamp
// to 1 to stay defined, as the paper's geomeans do for counts).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		if x < 1 {
			x = 1
		}
		prod *= x
	}
	// n-th root via successive halving-free math: use math.Pow.
	return pow(prod, 1/float64(len(xs)))
}

// GeoMeanFrac is GeoMean for fractions in (0,1]: zeros clamp to a tiny
// epsilon instead of 1.
func GeoMeanFrac(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		if x < 1e-9 {
			x = 1e-9
		}
		prod *= x
	}
	return pow(prod, 1/float64(len(xs)))
}

// pow is math.Pow; indirected for clarity of intent above.
func pow(x, y float64) float64 { return math.Pow(x, y) }

// FreeOrderHistogram tallies free blocks per buddy order from any
// free-block visitor (a single zone's Buddy.VisitFreeBlocks, or a
// machine-wide visitor that chains zones). Index o counts free blocks
// of order o.
func FreeOrderHistogram(visit func(fn func(pfn addr.PFN, order int))) [addr.MaxOrder + 1]uint64 {
	var counts [addr.MaxOrder + 1]uint64
	visit(func(_ addr.PFN, order int) { counts[order]++ })
	return counts
}

// UnusableFreeIndex computes Gorman's unusable free space index for
// allocations of the given order from a per-order free-block histogram:
// the fraction (0..1) of free memory that sits in blocks too small to
// satisfy a 2^order-page request. 0 means every free page is usable at
// that granularity; 1 means none is. Zero when nothing is free (an
// exhausted machine is not fragmented, matching FragScore).
func UnusableFreeIndex(counts [addr.MaxOrder + 1]uint64, order int) float64 {
	var free, usable uint64
	for o := 0; o <= addr.MaxOrder; o++ {
		pages := counts[o] * addr.OrderPages(o)
		free += pages
		if o >= order {
			usable += pages
		}
	}
	if free == 0 {
		return 0
	}
	return float64(free-usable) / float64(free)
}
