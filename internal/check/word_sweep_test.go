package check

import (
	"fmt"
	"math/rand"
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
			r := a.refs[rel]
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

// wordSweepFixture is shardedFixture with a THP-backed 4 MiB mapping and
// page-cache residency added in every zone, so corrupted frames can be
// free, mapped, inside a huge leaf, cached, or allocated at order 0
// inside a populated run. Per zone it returns the first frame of three
// words: one holding the lowest frame with a MapCount, one inside a
// huge leaf (allocated frames without a MapCount), and the lowest word
// whose 64 frames are all cached.
func wordSweepFixture(t *testing.T) (m *zone.Machine, ks []*osim.Kernel, referenced, interior, cached []addr.PFN) {
	t.Helper()
	m, ks, envs := shardedFixture(t)
	inCache := map[addr.PFN]bool{}
	for i, env := range envs {
		v, err := env.MMap(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Populate(v); err != nil {
			t.Fatal(err)
		}
		k := ks[1+i]
		f := k.Cache.CreateFile(512 << 12)
		if err := k.Cache.Read(f, 0, 512<<12); err != nil {
			t.Fatal(err)
		}
		k.Cache.VisitFiles(func(slots []addr.PFN) {
			for _, v := range slots {
				if v != 0 {
					inCache[v-1] = true
				}
			}
		})
	}
	for i, z := range m.Zones {
		ref, in, cw := addr.PFN(0), addr.PFN(0), addr.PFN(0)
		for j, f := range m.Frames.Slice(z.Base, z.Pages) {
			pfn := z.Base + addr.PFN(j)
			if ref == 0 && f.MapCount != 0 {
				ref = pfn &^ 63
			}
			if in == 0 && f.State == frame.Allocated && f.MapCount == 0 {
				in = pfn&^63 + 64
			}
			if cw == 0 && pfn&63 == 63 {
				all := true
				for p := pfn - 63; p <= pfn && all; p++ {
					all = inCache[p]
				}
				if all {
					cw = pfn - 63
				}
			}
		}
		if ref == 0 || in == 0 || cw == 0 {
			t.Fatalf("zone %d: referenced word %d, huge-leaf word %d, cached word %d", i, ref, in, cw)
		}
		referenced = append(referenced, ref)
		interior = append(interior, in)
		cached = append(cached, cw)
	}
	return m, ks, referenced, interior, cached
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
// first referenced frame's word, inside a huge leaf, at a wholly
// cached word, and at random (fixed seed), so the corrupted frames are
// free, mapped, spanned, cached and allocated. A second round applies two
// corruptions at once, which pins the order in which the audit selects
// among several errors.
func TestWordSweepMatchesFrameSweep(t *testing.T) {
	m, ks, referenced, interior, cached := wordSweepFixture(t)
	if compareSweeps(t, m, ks, nil, "clean") {
		t.FailNow()
	}

	rng := rand.New(rand.NewSource(1))
	var sites []addr.PFN
	for i, z := range m.Zones {
		sites = append(sites, z.Base, z.Base+addr.PFN(z.Pages)-1)
		pairs := []addr.PFN{
			referenced[i],
			interior[i],
			cached[i],
			z.Base + addr.PFN(rng.Intn(int(z.Pages/128))*128),
		}
		for _, p := range pairs {
			sites = append(sites, p, p+63, p+64, p+127)
		}
	}

	cases := 0
	for _, pfn := range sites {
		for _, c := range sweepCorruptions {
			m, ks, _, _, _ := wordSweepFixture(t)
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
		m, ks, _, _, _ := wordSweepFixture(t)
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
