package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
)

func mk(va, pa, pages uint64) Mapping {
	return Mapping{VA: addr.VirtAddr(va) << addr.PageShift, PA: addr.PhysAddr(pa) << addr.PageShift, Pages: pages}
}

func TestFromPageTableMergesRuns(t *testing.T) {
	pt := pagetable.New()
	// Three 4K pages contiguous both ways, then a gap, then a huge page
	// physically continuing a 4K page.
	pt.Map4K(0x1000, 10, 0)
	pt.Map4K(0x2000, 11, 0)
	pt.Map4K(0x3000, 12, 0)
	pt.Map4K(0x9000, 50, 0)
	base := addr.VirtAddr(8 * addr.HugeSize)
	pt.Map4K(base-addr.PageSize, 1023, 0) // just below huge, physically adjacent
	pt.Map2M(base, 1024, 0)
	ms := FromPageTable(pt)
	if len(ms) != 3 {
		t.Fatalf("mappings = %d (%+v), want 3", len(ms), ms)
	}
	if ms[0].Pages != 3 || ms[1].Pages != 1 {
		t.Fatalf("run sizes = %d,%d", ms[0].Pages, ms[1].Pages)
	}
	// 4K + huge merged: 513 pages.
	if ms[2].Pages != 513 {
		t.Fatalf("merged run = %d pages, want 513", ms[2].Pages)
	}
}

func TestFromPageTableVirtualGapBreaksRun(t *testing.T) {
	pt := pagetable.New()
	pt.Map4K(0x1000, 10, 0)
	pt.Map4K(0x3000, 11, 0) // physically adjacent but VA gap
	ms := FromPageTable(pt)
	if len(ms) != 2 {
		t.Fatalf("mappings = %d, want 2", len(ms))
	}
}

func TestCoverageTopN(t *testing.T) {
	ms := []Mapping{mk(0, 0, 100), mk(1000, 500, 50), mk(2000, 900, 25), mk(3000, 1500, 25)}
	if got := CoverageTopN(ms, 1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("top1 = %f", got)
	}
	if got := CoverageTopN(ms, 2); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("top2 = %f", got)
	}
	if got := CoverageTopN(ms, 10); got != 1 {
		t.Fatalf("topAll = %f", got)
	}
	if CoverageTopN(nil, 32) != 0 {
		t.Fatal("empty coverage should be 0")
	}
}

func TestMappingsFor(t *testing.T) {
	ms := []Mapping{mk(0, 0, 98), mk(1000, 500, 1), mk(2000, 900, 1)}
	if got := MappingsFor(ms, 0.98); got != 1 {
		t.Fatalf("98%% needs %d", got)
	}
	if got := MappingsFor(ms, 0.99); got != 2 {
		t.Fatalf("99%% needs %d", got)
	}
	if got := MappingsFor(ms, 1.0); got != 3 {
		t.Fatalf("100%% needs %d", got)
	}
	if MappingsFor(nil, 0.99) != 0 {
		t.Fatal("empty should need 0")
	}
}

func TestCoverageMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		var ms []Mapping
		va := uint64(0)
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			ms = append(ms, mk(va, va+1e6, uint64(s)))
			va += uint64(s) + 1
		}
		// Coverage is monotone in N and hits 1 at len(ms).
		prev := 0.0
		for n := 1; n <= len(ms); n++ {
			c := CoverageTopN(ms, n)
			if c+1e-12 < prev {
				return false
			}
			prev = c
		}
		return len(ms) == 0 || math.Abs(CoverageTopN(ms, len(ms))-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// countsOf turns a sample list into Percentile's count per value.
func countsOf(xs []uint64) map[uint64]uint64 {
	counts := make(map[uint64]uint64)
	for _, x := range xs {
		counts[x]++
	}
	return counts
}

// sortedNearestRank is the percentile over the samples themselves that
// the counts form replaced: nearest rank on a sorted copy. It is kept
// here as the reference Percentile must equal.
func sortedNearestRank(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func TestPercentile(t *testing.T) {
	xs := countsOf([]uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if got := Percentile(xs, 0.5); got != 50 {
		t.Fatalf("p50 = %d", got)
	}
	if got := Percentile(xs, 0.99); got != 100 {
		t.Fatalf("p99 = %d", got)
	}
	if got := Percentile(xs, 0.1); got != 10 {
		t.Fatalf("p10 = %d", got)
	}
	if Percentile(nil, 0.99) != 0 {
		t.Fatal("empty percentile")
	}
	if got := Percentile(map[uint64]uint64{42: 1}, 0.99); got != 42 {
		t.Fatalf("single = %d", got)
	}
}

// TestPercentileMatchesSortedNearestRank checks the counts form against
// the sorted-slice reference on random multisets (few distinct values,
// many repeats, as fault latencies are), one value, and empty.
func TestPercentileMatchesSortedNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]uint64{nil, {42}, {7, 7, 7}}
	for range 300 {
		xs := make([]uint64, rng.Intn(500))
		distinct := 1 + rng.Intn(12)
		for i := range xs {
			xs[i] = 3000 + uint64(rng.Intn(distinct))*1000
		}
		cases = append(cases, xs)
	}
	for _, xs := range cases {
		counts := countsOf(xs)
		for _, p := range []float64{0, 0.5, 0.99, 1} {
			if got, want := Percentile(counts, p), sortedNearestRank(xs, p); got != want {
				t.Fatalf("p=%v over %d samples %v: got %d, want %d", p, len(xs), counts, got, want)
			}
		}
	}
}

func TestMeanGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %f", got)
	}
	if got := GeoMeanFrac([]float64{0.25, 1}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("geomean frac = %f", got)
	}
	if GeoMean(nil) != 0 || GeoMeanFrac(nil) != 0 {
		t.Fatal("empty geomeans")
	}
}

func TestMappingAccessors(t *testing.T) {
	m := mk(100, 200, 5)
	if m.End() != m.VA.Add(5*addr.PageSize) {
		t.Fatal("End wrong")
	}
	if m.Offset().Target(m.VA) != m.PA {
		t.Fatal("Offset roundtrip wrong")
	}
}

// TestUnusableFreeIndex pins the Gorman index on hand-built histograms
// and its degenerate cases.
func TestUnusableFreeIndex(t *testing.T) {
	var empty [addr.MaxOrder + 1]uint64
	if got := UnusableFreeIndex(empty, addr.HugeOrder); got != 0 {
		t.Fatalf("empty machine index = %v, want 0", got)
	}

	// One MAX_ORDER block: fully usable at every order.
	var pristine [addr.MaxOrder + 1]uint64
	pristine[addr.MaxOrder] = 1
	for o := 0; o <= addr.MaxOrder; o++ {
		if got := UnusableFreeIndex(pristine, o); got != 0 {
			t.Fatalf("pristine index at order %d = %v, want 0", o, got)
		}
	}

	// Pure 4 KiB confetti: usable at order 0, fully unusable above.
	var confetti [addr.MaxOrder + 1]uint64
	confetti[0] = 1024
	if got := UnusableFreeIndex(confetti, 0); got != 0 {
		t.Fatalf("order-0 requests never starve, index = %v", got)
	}
	if got := UnusableFreeIndex(confetti, addr.HugeOrder); got != 1 {
		t.Fatalf("confetti huge index = %v, want 1", got)
	}

	// Mixed: 512 pages in singles + one huge block = 1024 free pages,
	// half unusable for huge allocations.
	var mixed [addr.MaxOrder + 1]uint64
	mixed[0] = 512
	mixed[addr.HugeOrder] = 1
	if got := UnusableFreeIndex(mixed, addr.HugeOrder); got != 0.5 {
		t.Fatalf("mixed huge index = %v, want 0.5", got)
	}
	if got := UnusableFreeIndex(mixed, addr.MaxOrder); got != 1 {
		t.Fatalf("nothing reaches MAX_ORDER, index = %v, want 1", got)
	}
}

// TestFreeOrderHistogram checks the visitor adapter counts per order.
func TestFreeOrderHistogram(t *testing.T) {
	counts := FreeOrderHistogram(func(fn func(pfn addr.PFN, order int)) {
		fn(0, 0)
		fn(8, 3)
		fn(16, 3)
		fn(512, addr.HugeOrder)
	})
	want := [addr.MaxOrder + 1]uint64{}
	want[0], want[3], want[addr.HugeOrder] = 1, 2, 1
	if counts != want {
		t.Fatalf("histogram = %v, want %v", counts, want)
	}
}
