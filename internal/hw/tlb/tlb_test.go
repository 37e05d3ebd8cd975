package tlb

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestColdMissThenHit(t *testing.T) {
	tl := New(1536, 6)
	va := addr.VirtAddr(0x1000)
	if tl.Lookup(va) {
		t.Fatal("cold lookup should miss")
	}
	tl.Insert(va, false)
	if !tl.Lookup(va) {
		t.Fatal("hit expected after insert")
	}
	if tl.Lookups() != 2 || tl.Misses() != 1 {
		t.Fatalf("counters = %d/%d", tl.Lookups(), tl.Misses())
	}
	if tl.MissRatio() != 0.5 {
		t.Fatalf("ratio = %f", tl.MissRatio())
	}
}

func TestHugeEntryCoversRegion(t *testing.T) {
	tl := New(1536, 6)
	base := addr.VirtAddr(8 * addr.HugeSize)
	tl.Insert(base, true)
	// Any address within the 2 MiB region hits.
	for _, off := range []uint64{0, addr.PageSize, addr.HugeSize - 1} {
		if !tl.Lookup(base.Add(off)) {
			t.Fatalf("huge entry should cover +%d", off)
		}
	}
	// Outside the region misses.
	if tl.Lookup(base.Add(addr.HugeSize)) {
		t.Fatal("adjacent region should miss")
	}
}

func Test4KEntryDoesNotCoverNeighbour(t *testing.T) {
	tl := New(64, 4)
	tl.Insert(0x1000, false)
	if tl.Lookup(0x2000) {
		t.Fatal("4K entry must not cover the next page")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// 4 entries, 4 ways: one set. Insert 4, touch the first, insert a
	// 5th: the LRU victim must be the untouched second entry.
	tl := New(4, 4)
	vas := []addr.VirtAddr{0x1000, 0x2000, 0x3000, 0x4000}
	for _, va := range vas {
		tl.Insert(va, false)
	}
	if !tl.Lookup(vas[0]) {
		t.Fatal("miss on resident entry")
	}
	tl.Insert(0x9000, false)
	if !tl.Lookup(vas[0]) {
		t.Fatal("recently used entry evicted")
	}
	if tl.Lookup(vas[1]) {
		t.Fatal("LRU entry not evicted")
	}
}

func TestCapacityMissBehaviour(t *testing.T) {
	// Working set larger than the TLB produces a high miss ratio;
	// smaller working set after warm-up hits ~always.
	tl := New(64, 4)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1024; i++ {
			va := addr.VirtAddr(i) << addr.PageShift
			if !tl.Lookup(va) {
				tl.Insert(va, false)
			}
		}
	}
	if tl.MissRatio() < 0.9 {
		t.Fatalf("thrashing working set ratio = %f", tl.MissRatio())
	}
	lookups, misses := tl.Lookups(), tl.Misses()
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			va := addr.VirtAddr(i) << addr.PageShift
			if !tl.Lookup(va) {
				tl.Insert(va, false)
			}
		}
	}
	if r := float64(tl.Misses()-misses) / float64(tl.Lookups()-lookups); r > 0.2 {
		t.Fatalf("resident working set ratio = %f", r)
	}
}

func TestFlush(t *testing.T) {
	tl := New(64, 4)
	tl.Insert(0x1000, false)
	tl.Flush()
	if tl.Lookup(0x1000) {
		t.Fatal("hit after flush")
	}
}

func TestGeometryRounding(t *testing.T) {
	// 6-way 1536 entries -> 256 sets (power of two) must not panic.
	New(1536, 6)
	// Non-power-of-two set count rounds down.
	tl := New(48, 4) // 12 sets -> rounds to 8, ways raised to 6
	if tl.nsets != 8 {
		t.Fatalf("nsets = %d, want 8", tl.nsets)
	}
	// Regression: rounding the set count down used to silently shrink
	// the structure to 32 entries; the raised associativity preserves
	// the requested capacity.
	if tl.Entries() != 48 {
		t.Fatalf("entries = %d, want 48", tl.Entries())
	}
	if tl.ways != 6 {
		t.Fatalf("ways = %d, want 6", tl.ways)
	}
	if got := New(1536, 6).Entries(); got != 1536 {
		t.Fatalf("power-of-two geometry changed: entries = %d, want 1536", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry should panic")
		}
	}()
	New(5, 4)
}

// TestTagZeroIsValid pins the packed way key: an empty way is key 0,
// so page number 0 must be neither matched by an empty way nor taken
// for one, at both page sizes.
func TestTagZeroIsValid(t *testing.T) {
	for _, huge := range []bool{false, true} {
		shift := uint(addr.PageShift)
		if huge {
			shift = addr.HugeShift
		}
		page := func(n uint64) addr.VirtAddr { return addr.VirtAddr(n << shift) }
		tl := New(4, 4) // one set
		tl.Insert(page(5), huge)
		if tl.Lookup(page(0)) {
			t.Fatalf("huge=%v: an empty way answered page 0", huge)
		}
		tl.Insert(page(0), huge)
		// Fill the two ways left; page 0's way must not be reused.
		tl.Insert(page(6), huge)
		tl.Insert(page(7), huge)
		for _, n := range []uint64{0, 5, 6, 7} {
			if !tl.Lookup(page(n)) {
				t.Fatalf("huge=%v: page %d missed with the set not full", huge, n)
			}
		}
	}
}

// TestSizesNeverAlias caches page number T as a 4K page and as a 2M
// page in the same set: the two entries must stay distinct, and neither
// may answer a probe of the other size.
func TestSizesNeverAlias(t *testing.T) {
	const T = 5
	small := addr.VirtAddr(T << addr.PageShift)
	huge := addr.VirtAddr(T << addr.HugeShift)

	// One set: a 4K T and an unrelated 2M entry, so both probes run.
	tl := New(4, 4)
	tl.Insert(small, false)
	tl.Insert(addr.VirtAddr((T+1)<<addr.HugeShift), true)
	if tl.Lookup(huge) {
		t.Fatal("4K page number T answered a 2M probe of T")
	}
	tl = New(4, 4)
	tl.Insert(huge, true)
	tl.Insert(addr.VirtAddr((T+1)<<addr.PageShift), false)
	if tl.Lookup(small) {
		t.Fatal("2M page number T answered a 4K probe of T")
	}

	// Both sizes of T resident together: two ways, both hit.
	tl = New(4, 4)
	tl.Insert(small, false)
	tl.Insert(huge, true)
	if !tl.Lookup(small) || !tl.Lookup(huge) {
		t.Fatal("4K and 2M entries of T did not both stay resident")
	}
	if tl.nSmall != 1 || tl.nHuge != 1 {
		t.Fatalf("size counts = %d/%d, want 1/1", tl.nSmall, tl.nHuge)
	}
}

// TestEvictEmitsVictim checks that an eviction reports the victim's own
// page number and size, for a 4K and a 2M victim.
func TestEvictEmitsVictim(t *testing.T) {
	tr := trace.New()
	tl := New(2, 2) // one set of two ways
	tl.SetTracer(tr)
	tl.Insert(addr.VirtAddr(7<<addr.HugeShift), true) // LRU victim first
	tl.Insert(addr.VirtAddr(9<<addr.PageShift), false)
	tl.Insert(addr.VirtAddr(11<<addr.PageShift), false) // evicts the 2M 7
	tl.Insert(addr.VirtAddr(13<<addr.PageShift), false) // evicts the 4K 9
	var got [][2]uint64
	for _, e := range tr.Events() {
		if e.Kind == trace.EvTLBEvict {
			got = append(got, [2]uint64{e.A, e.B})
		}
	}
	want := [][2]uint64{{7, 1}, {9, 0}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("evictions (tag, huge) = %v, want %v", got, want)
	}
}

// BenchmarkLookupHit measures a hit in the paper's 1536-entry 6-way
// TLB: a 4K hit (first probe), and the THP shape — the TLB also holds
// 4K entries, so the 4K probe runs and misses before the 2M probe hits.
func BenchmarkLookupHit(b *testing.B) {
	huge := addr.VirtAddr(8 << addr.HugeShift)
	for _, c := range []struct {
		name string
		va   addr.VirtAddr
	}{{"4k", 0x1000}, {"thp", huge + 0x3000}} {
		b.Run(c.name, func(b *testing.B) {
			tl := New(1536, 6)
			tl.Insert(0x1000, false)
			tl.Insert(huge, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Lookup(c.va)
			}
		})
	}
}

// TestHitRunMatchesLookup drives random runs of 4K and 2M addresses
// through two TLBs: one Lookups every access and inserts on a miss, the
// other serves each run through HitRun, accounts the miss through
// Lookup and inserts. After every miss the two must be identical, every
// way's key and LRU stamp, the clock and the counters included, and
// their tracers must have seen the same events.
func TestHitRunMatchesLookup(t *testing.T) {
	for _, geo := range [][2]int{{32, 4}, {48, 6}, {4, 4}} {
		ref, run := New(geo[0], geo[1]), New(geo[0], geo[1])
		refTr, runTr := trace.New(), trace.New()
		ref.SetTracer(refTr)
		run.SetTracer(runTr)
		rng := rand.New(rand.NewSource(int64(geo[0])))
		draw := func() workloads.Access {
			if rng.Intn(4) == 0 {
				return workloads.Access{VA: addr.VirtAddr(uint64(rng.Intn(8))<<addr.HugeShift + uint64(rng.Intn(512))<<addr.PageShift)}
			}
			return workloads.Access{VA: addr.VirtAddr(uint64(rng.Intn(64)) << addr.PageShift)}
		}
		hits, misses := 0, 0
		for round := 0; round < 400; round++ {
			accs := make([]workloads.Access, rng.Intn(40))
			for i := range accs {
				accs[i] = draw()
			}
			huge := func(va addr.VirtAddr) bool { return va>>addr.HugeShift != 0 && rng.Intn(2) == 0 }
			for rest := accs; len(rest) > 0; {
				k := run.HitRun(rest)
				for _, a := range rest[:k] {
					if !ref.Lookup(a.VA) {
						t.Fatalf("%v: HitRun served %v, Lookup misses it", geo, a.VA)
					}
				}
				hits += k
				if k == len(rest) {
					break
				}
				va := rest[k].VA
				if ref.Lookup(va) || run.Lookup(va) {
					t.Fatalf("%v: HitRun stopped at %v, Lookup hits it", geo, va)
				}
				misses++
				h := huge(va)
				ref.Insert(va, h)
				run.Insert(va, h)
				if !reflect.DeepEqual(ref.entries, run.entries) || ref.tick != run.tick ||
					ref.lookups != run.lookups || ref.misses != run.misses ||
					ref.nSmall != run.nSmall || ref.nHuge != run.nHuge {
					t.Fatalf("%v, round %d: run-level TLB diverged from per-access TLB", geo, round)
				}
				rest = rest[k+1:]
			}
			if round%50 == 49 {
				ref.Flush()
				run.Flush()
			}
		}
		if !reflect.DeepEqual(ref.entries, run.entries) || ref.tick != run.tick || ref.lookups != run.lookups {
			t.Fatalf("%v: run-level TLB diverged from per-access TLB at the end", geo)
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("%v: vacuous: %d hits, %d misses", geo, hits, misses)
		}
		if !reflect.DeepEqual(refTr.Events(), runTr.Events()) {
			t.Fatalf("%v: traces differ", geo)
		}
	}
}
