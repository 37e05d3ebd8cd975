package check

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/mem/zone"
	"repro/internal/osim"
)

// frameSweepOracle is the per-frame zone check the word sweep replaced,
// kept as the reference TestWordSweepMatchesFrameSweep compares against.
// Zone by zone it runs the buddy's whole check (lists, then coverage)
// and the contigmap check, then walks the zone's frames in ascending
// order, each frame's checks in turn, over arrays a has gathered.
func frameSweepOracle(a *Auditor, m *zone.Machine) error {
	for _, z := range m.Zones {
		if err := z.Buddy.CheckInvariants(); err != nil {
			return fmt.Errorf("zone %d: buddy: %w", z.ID, err)
		}
		if err := z.Contig.CheckInvariants(z.Buddy); err != nil {
			return fmt.Errorf("zone %d: contigmap: %w", z.ID, err)
		}
		fs := m.Frames.Slice(z.Base, z.Pages)
		relBase := uint64(z.Base - a.base)
		var free uint64
		for j := range fs {
			rel := relBase + uint64(j)
			f := &fs[j]
			r := a.refCount(rel)
			if f.MapCount != r {
				return fmt.Errorf("frame %d: MapCount %d but %d live references", z.Base+addr.PFN(j), f.MapCount, r)
			}
			switch f.State {
			case frame.Free:
				free++
				if r != 0 || a.span.get(rel) {
					return fmt.Errorf("frame %d: free but referenced by a mapping or the page cache", z.Base+addr.PFN(j))
				}
				if a.pins.get(rel) {
					return fmt.Errorf("frame %d: declared pinned but free (double free of a pin?)", z.Base+addr.PFN(j))
				}
			case frame.Allocated:
				orphan := r == 0 && !a.span.get(rel)
				if orphan && !a.pins.get(rel) {
					return fmt.Errorf("frame %d: allocated, unmapped, uncached, and not a declared pin (leaked frame)", z.Base+addr.PFN(j))
				}
				if !orphan && a.pins.get(rel) {
					return fmt.Errorf("frame %d: declared pinned but referenced by a mapping or the page cache", z.Base+addr.PFN(j))
				}
			case frame.Reserved:
				return fmt.Errorf("zone %d: frame %d in Reserved state inside a zone", z.ID, z.Base+addr.PFN(j))
			}
		}
		if free != z.Buddy.FreePages() {
			return fmt.Errorf("zone %d: frame table has %d free frames, buddy says %d", z.ID, free, z.Buddy.FreePages())
		}
	}
	return nil
}

// sweepCorruption damages the machine at one frame and returns the
// extents to declare pinned, or ok=false when it does not apply to the
// frame's current state.
type sweepCorruption struct {
	name  string
	apply func(m *zone.Machine, pfn addr.PFN) (pinned []Extent, ok bool)
}

var sweepCorruptions = []sweepCorruption{
	{"mapcount+1", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		m.Frames.Get(pfn).MapCount++
		return nil, true
	}},
	{"mapcount-1", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		m.Frames.Get(pfn).MapCount--
		return nil, true
	}},
	{"mapcount+2", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		// From 1 to 3 keeps the low bit: only the MapCount OR of a
		// word of single references sees it.
		m.Frames.Get(pfn).MapCount += 2
		return nil, true
	}},
	{"free-allocated-flip", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		f := m.Frames.Get(pfn)
		switch f.State {
		case frame.Free:
			f.State = frame.Allocated
		case frame.Allocated:
			f.State = frame.Free
		default:
			return nil, false
		}
		return nil, true
	}},
	{"reserved", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		m.Frames.Get(pfn).State = frame.Reserved
		return nil, true
	}},
	{"stray-pin", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		return []Extent{{PFN: uint64(pfn), Pages: 1}}, true
	}},
	{"stray-pin-word", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		// The whole word holding pfn: no frame in it stands out.
		return []Extent{{PFN: uint64(pfn &^ 63), Pages: 64}}, true
	}},
	{"freed-behind-mapping", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		f := m.Frames.Get(pfn)
		if f.State != frame.Allocated {
			return nil, false
		}
		mc := f.MapCount
		m.FreeBlock(pfn, 0)
		m.Frames.Get(pfn).MapCount = mc
		return nil, true
	}},
	{"word-freed-behind-back", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		// Every allocated frame of pfn's word, which the free leaves
		// without a MapCount: a wholly free word that only the
		// gathered seen or span bits contradict.
		w := pfn &^ 63
		freed := false
		for p := w; p < w+64; p++ {
			if m.Frames.Get(p).State == frame.Allocated {
				m.FreeBlock(p, 0)
				freed = true
			}
		}
		return nil, freed
	}},
	{"allocated-behind-back", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		return nil, m.AllocBlockAt(pfn, 0) == nil
	}},
	{"unknown-state", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		m.Frames.Get(pfn).State = 7
		return nil, true
	}},
	{"unknown-state-behind-back", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		// The per-frame checks ignore a state they do not know, so an
		// unreferenced frame in one passes; the word test flags its
		// word and the rescan must clear it.
		if m.AllocBlockAt(pfn, 0) != nil {
			return nil, false
		}
		m.Frames.Get(pfn).State = 7
		return nil, true
	}},
	{"declared-hog-pin", func(m *zone.Machine, pfn addr.PFN) ([]Extent, bool) {
		// Allocated and declared pinned, as a memory hog's chunk is:
		// a consistent machine both sweeps must pass.
		if m.AllocBlockAt(pfn, 0) != nil {
			return nil, false
		}
		return []Extent{{PFN: uint64(pfn), Pages: 1}}, true
	}},
}

// fixtureWords names, per zone, the first frame of the words
// TestWordSweepMatchesFrameSweep corrupts pairs from.
type fixtureWords struct {
	// referenced holds the zone's lowest frame with a MapCount, which
	// the fork shares copy-on-write.
	referenced []addr.PFN
	// interior is inside a huge leaf: allocated frames, no MapCount.
	interior []addr.PFN
	// forked is the lowest word of the forked tenant's 4K run: every
	// frame mapped twice.
	forked []addr.PFN
	// cached is the lowest word whose 64 frames are all cached, and
	// nothing else.
	cached []addr.PFN
	// shared is the next wholly cached word; its last frame is also
	// mapped, so it holds two references.
	shared []addr.PFN
}

// wordSweepFixture is shardedFixture with a THP-backed 4 MiB mapping and
// page-cache residency added in every zone and each zone's process
// forked, so corrupted frames can be free, mapped, inside a huge leaf,
// cached, allocated at order 0 inside a populated run, or hold two
// references: CoW-shared after the fork, or both cached and mapped.
func wordSweepFixture(t *testing.T) (*zone.Machine, []*osim.Kernel, fixtureWords) {
	t.Helper()
	m, ks, envs := shardedFixture(t)
	type filePage struct {
		f   *osim.File
		idx uint64
	}
	inCache := map[addr.PFN]filePage{}
	for i, env := range envs {
		v, err := env.MMap(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Populate(v); err != nil {
			t.Fatal(err)
		}
		env.Proc.Fork()
		k := ks[1+i]
		f := k.Cache.CreateFile(512 << 12)
		if err := k.Cache.Read(f, 0, 512<<12); err != nil {
			t.Fatal(err)
		}
		k.Cache.VisitFiles(func(slots []addr.PFN) {
			for idx, v := range slots {
				if v != 0 {
					inCache[v-1] = filePage{f, uint64(idx)}
				}
			}
		})
	}
	var words fixtureWords
	for i, z := range m.Zones {
		var ref, in, forked addr.PFN
		var cached []addr.PFN
		fs := m.Frames.Slice(z.Base, z.Pages)
		for j, f := range fs {
			pfn := z.Base + addr.PFN(j)
			if ref == 0 && f.MapCount != 0 {
				ref = pfn &^ 63
			}
			if in == 0 && f.State == frame.Allocated && f.MapCount == 0 {
				in = pfn&^63 + 64
			}
			if pfn&63 != 63 {
				continue
			}
			word := fs[j-63 : j+1]
			if forked == 0 && !slices.ContainsFunc(word, func(f frame.Frame) bool { return f.MapCount != 2 }) {
				forked = pfn - 63
			}
			all := true
			for p := pfn - 63; p <= pfn && all; p++ {
				_, all = inCache[p]
			}
			if all && len(cached) < 2 {
				cached = append(cached, pfn-63)
			}
		}
		if ref == 0 || in == 0 || forked == 0 || len(cached) < 2 {
			t.Fatalf("zone %d: referenced word %d, huge-leaf word %d, forked word %d, wholly cached words %v", i, ref, in, forked, cached)
		}
		if !slices.ContainsFunc(m.Frames.Slice(ref, 64), func(f frame.Frame) bool { return f.MapCount == 2 }) {
			t.Fatalf("zone %d: the fork shares no frame of word %d", i, ref)
		}
		// Map the second cached word's last frame into the zone's
		// process.
		shared := cached[1]
		fp := inCache[shared+63]
		env := envs[i]
		v, err := env.Proc.MMapFile(fp.f, 0, fp.f.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Touch(v.Start.Add(fp.idx*addr.PageSize), false); err != nil {
			t.Fatal(err)
		}
		if mc := m.Frames.Get(shared + 63).MapCount; mc != 2 {
			t.Fatalf("zone %d: mapped cached frame %d has MapCount %d", i, shared+63, mc)
		}
		words.referenced = append(words.referenced, ref)
		words.interior = append(words.interior, in)
		words.forked = append(words.forked, forked)
		words.cached = append(words.cached, cached[0])
		words.shared = append(words.shared, shared)
	}
	return m, ks, words
}

// compareSweeps audits m with the word sweep and with the per-frame
// oracle and requires the same result: the same error string, or nil
// from both.
func compareSweeps(t *testing.T, m *zone.Machine, ks []*osim.Kernel, pinned []Extent, what string) (failed bool) {
	t.Helper()
	got := NewAuditor(m).AuditKernels(m, ks, pinned)
	o := NewAuditor(m)
	if err := o.gather(m, ks, pinned); err != nil {
		t.Fatalf("%s: gather: %v", what, err)
	}
	want := frameSweepOracle(o, m)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("%s: word sweep reported %v, per-frame oracle %v", what, got, want)
		return true
	}
	return false
}

// TestWordSweepMatchesFrameSweep applies single-frame corruptions at
// the edges of bitset words — frames 0, 63, 64 and 127 of a word pair,
// and each zone's first and last frame — and requires the word sweep
// to report exactly the per-frame oracle's error, or nil exactly when
// the oracle does. Each zone contributes word pairs starting at its
// first referenced frame's word, inside a huge leaf, in a forked
// tenant's 4K run, at a wholly cached word, at one that also holds a
// mapped page, and at random (fixed seed), so the corrupted frames are
// free, mapped, spanned, cached, allocated, and held by one reference
// or two. A second round applies two corruptions at once, which pins
// the order in which the audit selects among several errors.
func TestWordSweepMatchesFrameSweep(t *testing.T) {
	m, ks, words := wordSweepFixture(t)
	if compareSweeps(t, m, ks, nil, "clean") {
		t.FailNow()
	}

	rng := rand.New(rand.NewSource(1))
	var sites []addr.PFN
	for i, z := range m.Zones {
		sites = append(sites, z.Base, z.Base+addr.PFN(z.Pages)-1)
		pairs := []addr.PFN{
			words.referenced[i],
			words.interior[i],
			words.forked[i],
			words.cached[i],
			words.shared[i],
			z.Base + addr.PFN(rng.Intn(int(z.Pages/128))*128),
		}
		for _, p := range pairs {
			sites = append(sites, p, p+63, p+64, p+127)
		}
	}

	cases := 0
	for _, pfn := range sites {
		for _, c := range sweepCorruptions {
			m, ks, _ := wordSweepFixture(t)
			pinned, ok := c.apply(m, pfn)
			if !ok {
				continue
			}
			cases++
			if compareSweeps(t, m, ks, pinned, fmt.Sprintf("%s at frame %d", c.name, pfn)) {
				return
			}
		}
	}
	if cases < len(sites)*6 {
		t.Fatalf("only %d of %d single corruptions applied", cases, len(sites)*len(sweepCorruptions))
	}

	for n := 0; n < 100; n++ {
		m, ks, _ := wordSweepFixture(t)
		var pinned []Extent
		what := ""
		for k := 0; k < 2; k++ {
			pfn := sites[rng.Intn(len(sites))]
			c := sweepCorruptions[rng.Intn(len(sweepCorruptions))]
			if p, ok := c.apply(m, pfn); ok {
				pinned = append(pinned, p...)
				what += fmt.Sprintf("%s at frame %d; ", c.name, pfn)
			}
		}
		if compareSweeps(t, m, ks, pinned, what) {
			return
		}
	}
}

// TestRefCountMatchesNaiveCount records random multisets of
// references on a small machine, through both gather paths — one
// reference at a time as page-table leaves are, and as page-cache
// slot arrays whose runs of consecutive frames break, skip slots and
// wander back into words already seen — and
// requires refCount to equal a naive per-frame count for every frame,
// with multi marking exactly the words that hold a repeated frame.
func TestRefCountMatchesNaiveCount(t *testing.T) {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{2 * addr.MaxOrderPages, addr.MaxOrderPages}})
	n := m.Frames.Len()
	a := NewAuditor(m)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		a.ensure(m)
		want := make([]int32, n)
		refs := rng.Intn(4 * int(n))
		if round%4 == 0 {
			refs = rng.Intn(64) // sparse: most words hold no repeat
		}
		for refs > 0 {
			if rng.Intn(2) == 0 {
				rel := uint64(rng.Int63n(int64(n)))
				a.refRun(rel, 1)
				want[rel]++
				refs--
				continue
			}
			slots := make([]addr.PFN, 1+rng.Intn(300))
			rel := uint64(rng.Int63n(int64(n)))
			for i := range slots {
				switch r := rng.Intn(20); {
				case r == 0:
					rel = uint64(rng.Int63n(int64(n))) // jump anywhere
				case r < 3:
					continue // not resident
				case r < 5:
					rel = (rel + n - 64) % n // back into the previous word
				case r < 6:
					rel = (rel + 1 + uint64(rng.Intn(3))) % n // a short gap
				default:
					rel = (rel + 1) % n
				}
				slots[i] = a.base + addr.PFN(rel) + 1
				want[rel]++
				refs--
			}
			a.refSlots(slots)
		}
		a.indexDups()
		for rel := uint64(0); rel < n; rel++ {
			if got := a.refCount(rel); got != want[rel] {
				t.Fatalf("round %d: frame %d: refCount %d, naive count %d", round, rel, got, want[rel])
			}
		}
		for w := uint64(0); w < n/64; w++ {
			repeat := slices.ContainsFunc(want[w*64:w*64+64], func(c int32) bool { return c > 1 })
			if a.multi.get(w) != repeat {
				t.Fatalf("round %d: word %d: multi %v, holds a repeated frame %v", round, w, a.multi.get(w), repeat)
			}
		}
	}

	// Single runs of every length up to 13 that end 0 to 4 slots before
	// the array's end, after 0 to 2 empty slots, so the four-slot test
	// meets every remainder at the run's end and at the array's; the
	// last case is one run filling the whole array.
	single := func(lead, length, gap int) {
		t.Helper()
		a.ensure(m)
		rel := uint64(rng.Int63n(int64(n) - int64(length)))
		slots := make([]addr.PFN, lead+length+gap)
		for i := 0; i < length; i++ {
			slots[lead+i] = a.base + addr.PFN(rel) + addr.PFN(i) + 1
		}
		a.refSlots(slots)
		a.indexDups()
		for f := uint64(0); f < n; f++ {
			want := int32(0)
			if f >= rel && f < rel+uint64(length) {
				want = 1
			}
			if got := a.refCount(f); got != want {
				t.Fatalf("run of %d after %d empty slots, %d before the end: frame %d: refCount %d, want %d", length, lead, gap, f, got, want)
			}
		}
	}
	for lead := 0; lead <= 2; lead++ {
		for length := 1; length <= 13; length++ {
			for gap := 0; gap <= 4; gap++ {
				single(lead, length, gap)
			}
		}
	}
	single(0, int(n)/2, 0)
}
