package hc

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
)

func mk(vaPage, paPage, pages uint64) metrics.Mapping {
	return metrics.Mapping{
		VA:    addr.VirtAddr(vaPage) << addr.PageShift,
		PA:    addr.PhysAddr(paPage) << addr.PageShift,
		Pages: pages,
	}
}

// countAt is the 99% entry count at one fixed anchor distance.
func countAt(ms []metrics.Mapping, distPages uint64) int {
	return entriesFor(coverages(ms, distPages), 0.99)
}

func TestAlignedMappingCoalescesPerfectly(t *testing.T) {
	// One mapping of 4096 pages starting at an anchor-aligned VA: at
	// distance 512 it needs exactly 4096/512 = 8 anchor entries.
	ms := []metrics.Mapping{mk(512*4, 0, 4096)}
	if got := countAt(ms, 512); got != 8 {
		t.Fatalf("aligned count = %d, want 8", got)
	}
}

func TestUnalignedMappingFractures(t *testing.T) {
	// The same 4096-page mapping shifted by one page: the head pages up
	// to the next anchor cost one regular entry each, and coverage is
	// greedily counted — but crucially more entries than the aligned
	// case are needed to reach 99%.
	// At an anchor distance equal to the mapping size, the aligned
	// mapping is a single anchor entry; shifting it one page leaves no
	// coverable window, so everything falls back to (2 MiB) regular
	// entries.
	aligned := countAt([]metrics.Mapping{mk(4096, 0, 4096)}, 4096)
	unaligned := countAt([]metrics.Mapping{mk(4096+1, 1, 4096)}, 4096)
	if unaligned <= aligned {
		t.Fatalf("unaligned (%d) should need more entries than aligned (%d)", unaligned, aligned)
	}
}

func TestRangeVsAnchorGap(t *testing.T) {
	// A single unaligned multi-GB-scale mapping is 1 range for vRMM but
	// many anchors for vHC — the Table I observation (anchors ~38x).
	ms := []metrics.Mapping{mk(12345, 777, 300000)}
	best := BestAnchorCount(ms, 3, 16)
	if best.EntriesFor99 < 2 {
		t.Fatalf("vHC entries = %d; expected more than a range translation needs", best.EntriesFor99)
	}
}

func TestBestAnchorPicksGoodDistance(t *testing.T) {
	// Mappings of ~64 pages each, aligned to 64: distance 64 is ideal;
	// BestAnchorCount must not pick something wildly worse.
	var ms []metrics.Mapping
	for i := uint64(0); i < 100; i++ {
		ms = append(ms, mk(i*64*2, i*64*3+64, 64)) // 64-page aligned chunks with VA gaps
	}
	best := BestAnchorCount(ms, 3, 12)
	atIdeal := countAt(ms, 64)
	if best.EntriesFor99 > atIdeal {
		t.Fatalf("best (%d @ %d pages) worse than fixed 64-page distance (%d)",
			best.EntriesFor99, best.AnchorDistancePages, atIdeal)
	}
}

func TestEmptyMappings(t *testing.T) {
	if countAt(nil, 512) != 0 {
		t.Fatal("empty mappings should need 0 entries")
	}
	best := BestAnchorCount(nil, 3, 8)
	if best.EntriesFor99 != 0 {
		t.Fatalf("empty best = %+v", best)
	}
}

func TestSmallMappingsAllRegularEntries(t *testing.T) {
	// 100 single-page mappings: no window is ever fully covered, so
	// every entry is a regular one; 99% needs 99 entries.
	var ms []metrics.Mapping
	for i := uint64(0); i < 100; i++ {
		ms = append(ms, mk(i*1000, i*2000, 1))
	}
	if got := countAt(ms, 512); got != 99 {
		t.Fatalf("singles count = %d, want 99", got)
	}
}
