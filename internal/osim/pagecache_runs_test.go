package osim_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/workloads"
)

// runZonePages is each of the comparison machines' two zones: 32 MiB.
const runZonePages = 8 * addr.MaxOrderPages

// cacheScenarios shape the machine a cache script runs on. Each setup
// must leave the same state on every machine it is applied to.
var cacheScenarios = []struct {
	name  string
	setup func(m *zone.Machine, rng *rand.Rand)
}{
	{"hogfine-aged", func(m *zone.Machine, rng *rand.Rand) {
		workloads.HogFine(m, 0.25, rng)
		ageMachine(m, rng)
	}},
	{"descending", func(m *zone.Machine, rng *rand.Rand) {
		workloads.HogFine(m, 0.25, rng)
		ageMachine(m, rng)
		// 32 isolated frames freed in ascending order sit on the
		// order-0 list highest first, so a fill takes them in
		// descending order and no two of them form a run.
		var head addr.PFN
		m.Zones[0].Buddy.VisitFreeBlocks(func(pfn addr.PFN, o int) {
			if o >= 6 && head == 0 {
				head = pfn
			}
		})
		if err := m.Reserve(head, 64); err != nil {
			panic(err)
		}
		for i := addr.PFN(0); i < 64; i += 2 {
			m.FreeBlock(head+i, 0)
		}
	}},
	{"zone-boundary", func(m *zone.Machine, _ *rand.Rand) {
		// Zone 0 keeps only its top order-3 block free and zone 1's
		// smallest free block is its first order-3 block, so a fill
		// runs frame-consecutively across the zone boundary.
		const b = addr.PFN(runZonePages)
		if err := m.Reserve(0, runZonePages-8); err != nil {
			panic(err)
		}
		if err := m.Reserve(b+8, addr.MaxOrderPages-8); err != nil {
			panic(err)
		}
	}},
}

// ageMachine allocates random blocks across both zones and frees a
// random half of them again.
func ageMachine(m *zone.Machine, rng *rand.Rand) {
	type block struct {
		pfn   addr.PFN
		order int
	}
	var live []block
	for range 600 {
		order := rng.Intn(4)
		if pfn, err := m.AllocBlock(rng.Intn(2), order); err == nil {
			live = append(live, block{pfn, order})
		}
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, b := range live[:len(live)/2] {
		m.FreeBlock(b.pfn, b.order)
	}
}

// cacheRig is one machine of the comparison: its kernel, the script's
// files, and a process mapping one of them.
type cacheRig struct {
	k     *osim.Kernel
	files []*osim.File
	p     *osim.Process
	held  []addr.PFN // order-0 frames the script holds outside the cache
}

// pagePolicy is DefaultPolicy placing one cache frame per PlaceFile
// call, with Machine.AllocBlock: the per-page reference for the run
// fill DefaultPolicy makes with one Machine.AllocN call.
type pagePolicy struct{ osim.DefaultPolicy }

func (pagePolicy) PlaceFile(k *osim.Kernel, _ *osim.File, _ uint64, out []addr.PFN) (int, bool, error) {
	pfn, err := k.Machine.AllocBlock(0, 0)
	if err != nil {
		return 0, false, osim.ErrOOM
	}
	out[0] = pfn
	return 1, false, nil
}

// newCacheRig builds a comparison machine. A perPage rig fills the
// cache one frame per PlaceFile call; CAPolicy places one page per call
// itself, so its two rigs differ only in their histories.
func newCacheRig(scenario int, seed int64, policy string, perPage bool) *cacheRig {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{runZonePages, runZonePages}, SortedMaxOrder: policy == "ca"})
	cacheScenarios[scenario].setup(m, rand.New(rand.NewSource(seed)))
	var pl osim.Placement = osim.DefaultPolicy{}
	switch {
	case policy == "ca":
		pl = osim.CAPolicy{}
	case perPage:
		pl = pagePolicy{}
	}
	k := osim.NewKernel(m, pl)
	r := &cacheRig{k: k, p: k.NewProcess(0)}
	// Sizes: one page, short, not a page multiple, a readahead window
	// and a bit, large, empty, and larger than the whole machine.
	for _, pages := range []uint64{1, 7, 33, 300, 4096, 0, 3 * runZonePages} {
		bytes := addr.PagesToBytes(pages)
		if pages == 33 {
			bytes -= 100
		}
		r.files = append(r.files, k.Cache.CreateFile(bytes))
	}
	return r
}

// sameState reports whether two rigs are in the same state, everything
// a cache operation can change: every file's slots, the residency
// counters, the clock and stats, every frame record, and every zone's
// free lists in list order.
func sameState(a, b *cacheRig) bool {
	ka, kb := a.k, b.k
	sa, sb := ka.Stats, kb.Stats
	if !maps.Equal(sa.FaultLatencies, sb.FaultLatencies) {
		return false
	}
	sa.FaultLatencies, sb.FaultLatencies = nil, nil
	if !reflect.DeepEqual(sa, sb) || ka.Clock != kb.Clock || ka.Cache.ResidentPages != kb.Cache.ResidentPages {
		return false
	}
	for i := range a.files {
		if a.files[i].CachedPages() != b.files[i].CachedPages() {
			return false
		}
	}
	n := ka.Machine.TotalPages()
	return slices.Equal(ka.Machine.Frames.Slice(0, n), kb.Machine.Frames.Slice(0, n)) &&
		slices.EqualFunc(slotsOf(ka), slotsOf(kb), slices.Equal) &&
		slices.EqualFunc(listsOf(ka), listsOf(kb), slices.Equal)
}

// slotsOf returns every resident file's slots, in file ID order.
func slotsOf(k *osim.Kernel) [][]addr.PFN {
	var out [][]addr.PFN
	k.Cache.VisitFiles(func(slots []addr.PFN) { out = append(out, slots) })
	return out
}

// listsOf returns every zone's free lists as (head, order) pairs, in
// VisitFreeBlocks order.
func listsOf(k *osim.Kernel) [][][2]uint64 {
	var out [][][2]uint64
	for _, z := range k.Machine.Zones {
		var l [][2]uint64
		z.Buddy.VisitFreeBlocks(func(pfn addr.PFN, o int) { l = append(l, [2]uint64{uint64(pfn), uint64(o)}) })
		out = append(out, l)
	}
	return out
}

// step applies one scripted operation and describes it with its
// outcome.
func (r *cacheRig) step(op int, a, b uint64) string {
	c := r.k.Cache
	f := r.files[a%uint64(len(r.files))]
	switch op {
	case 0: // a read of the whole file
		return fmt.Sprintf("Read(%d, all) = %v", f.ID, c.Read(f, 0, f.Bytes))
	case 1: // a partial read, zero-length ones included
		if f.Bytes == 0 {
			return fmt.Sprintf("Read(%d, 0, 0) = %v", f.ID, c.Read(f, 0, 0))
		}
		off := b % f.Bytes
		n := (a * 7919) % (f.Bytes - off + 1)
		return fmt.Sprintf("Read(%d, %d, %d) = %v", f.ID, off, n, c.Read(f, off, n))
	case 2:
		c.DropFile(f)
		return fmt.Sprintf("DropFile(%d)", f.ID)
	case 3:
		return fmt.Sprintf("DropOldest() = %v", c.DropOldest())
	case 4:
		frac := float64(b%80) / 100
		c.ReclaimUnder(frac)
		return fmt.Sprintf("ReclaimUnder(%.2f)", frac)
	case 5: // map the file and fault in a stride of its pages
		if f.Bytes == 0 || f.Pages() > 512 {
			return "map skipped"
		}
		v, err := r.p.MMapFile(f, 0, f.Bytes)
		if err != nil {
			return fmt.Sprintf("MMapFile(%d) = %v", f.ID, err)
		}
		for off := uint64(0); off < f.Bytes; off += (1 + b%3) * addr.PageSize {
			if _, err := r.p.Touch(v.Start.Add(off), false); err != nil {
				return fmt.Sprintf("touch(%d, +%d) = %v", f.ID, off, err)
			}
		}
		return fmt.Sprintf("mapped %d", f.ID)
	default: // memory pressure from outside the cache
		if len(r.held) > 0 && b%2 == 0 {
			i := int(a % uint64(len(r.held)))
			r.k.Machine.FreeBlock(r.held[i], 0)
			r.held = append(r.held[:i], r.held[i+1:]...)
			return "free held"
		}
		pfn, err := r.k.Machine.AllocBlock(int(b%2), 0)
		if err == nil {
			r.held = append(r.held, pfn)
		}
		return fmt.Sprintf("hold = %v", err)
	}
}

// TestCacheRunsMatchPerPage runs the same page-cache script on two
// machines, one whose placement hands the cache a frame per call (the
// page-at-a-time fill) and one with the policy's own PlaceFile (one
// buddy call per run of missing slots), and requires the same outcome
// and the same state after every operation. Both free by run;
// TestFreeLaterMatchesFreeBlock checks that against FreeBlock per page.
// The machines are aged and hog-fragmented, hand the cache frames in
// descending order, or run a fill across a zone boundary; the script
// covers partial and zero-length reads, OOM partway through a fill, a
// file mapped by a process (its frames outlive the drop), DropOldest
// and ReclaimUnder.
func TestCacheRunsMatchPerPage(t *testing.T) {
	for sc := range cacheScenarios {
		for _, policy := range []string{"default", "ca"} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", cacheScenarios[sc].name, policy, seed)
				pages := newCacheRig(sc, seed, policy, true)
				runs := newCacheRig(sc, seed, policy, false)
				if !sameState(pages, runs) {
					t.Fatalf("%s: the two machines differ before the script", name)
				}
				rng := rand.New(rand.NewSource(seed * 31337))
				// A fixed prefix: a partial read inside one window, a
				// whole file, a file mapped and then dropped (the frames
				// the process maps outlive the drop), a read that runs
				// out of memory partway, and a reclaim.
				script := [][3]uint64{{1, 1, 4*addr.PageSize + 5}, {0, 4, 0}, {5, 3, 1}, {2, 3, 0}, {0, 6, 0}, {4, 0, 60}}
				for range 50 {
					script = append(script, [3]uint64{uint64(rng.Intn(7)), rng.Uint64() % 1000, rng.Uint64()})
				}
				script = append(script, [3]uint64{0, 4, 0}, [3]uint64{0, 3, 0})
				for i, s := range script {
					got, want := runs.step(int(s[0]), s[1], s[2]), pages.step(int(s[0]), s[1], s[2])
					if got != want {
						t.Fatalf("%s op %d: run path %q, per-page path %q", name, i, got, want)
					}
					if !sameState(runs, pages) {
						t.Fatalf("%s op %d (%s): state differs from the per-page path", name, i, got)
					}
					// The prefix must reach what it is there for.
					switch {
					case i == 2 && got != fmt.Sprintf("mapped %d", runs.files[3].ID):
						t.Fatalf("%s: %s; want the file mapped", name, got)
					case i == 4 && (!strings.HasSuffix(got, osim.ErrOOM.Error()) || runs.files[6].CachedPages() == 0):
						t.Fatalf("%s: %s, %d pages cached; want an OOM partway", name, got, runs.files[6].CachedPages())
					case i == 1 && cacheScenarios[sc].name == "zone-boundary" && policy == "default" && !cachedAcross(runs.k, runZonePages):
						t.Fatalf("%s: no cached run crosses the zone boundary", name)
					}
				}
				for _, r := range []*cacheRig{pages, runs} {
					r.p.Exit()
					r.k.Cache.DropAll()
				}
				if !sameState(runs, pages) {
					t.Fatalf("%s: state differs after exit and DropAll", name)
				}
				if pages.k.Cache.ResidentPages != 0 {
					t.Fatalf("%s: %d pages resident after DropAll", name, pages.k.Cache.ResidentPages)
				}
			}
		}
	}
}

// cachedAcross reports whether some file caches frames b-1 and b at
// consecutive pages.
func cachedAcross(k *osim.Kernel, b addr.PFN) bool {
	for _, slots := range slotsOf(k) {
		for i := 1; i < len(slots); i++ {
			if slots[i-1] == b && slots[i] == b+1 {
				return true
			}
		}
	}
	return false
}

// TestZeroLengthReadCachesNothing pins a zero-length read: it returns
// nil and caches nothing, at offset 0 of a non-empty and of an empty
// file and at a file's end; the unsigned last-page computation once
// underflowed there, filled the whole file and indexed past its slots.
func TestZeroLengthReadCachesNothing(t *testing.T) {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{addr.MaxOrderPages}})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	for _, pages := range []uint64{16, 0} {
		f := k.Cache.CreateFile(addr.PagesToBytes(pages))
		for _, off := range []uint64{0, f.Bytes} {
			if err := k.Cache.Read(f, off, 0); err != nil {
				t.Fatalf("%d-page file: Read(%d, 0) = %v", pages, off, err)
			}
			if f.CachedPages() != 0 || f.HoldsSlots() || k.Cache.ResidentPages != 0 || k.Clock != 0 {
				t.Fatalf("%d-page file: Read(%d, 0) cached %d pages", pages, off, f.CachedPages())
			}
		}
		if err := k.Cache.Read(f, f.Bytes+1, 0); err == nil {
			t.Fatalf("%d-page file: zero-length read past EOF succeeded", pages)
		}
	}
	if m.FreePages() != m.TotalPages() {
		t.Fatal("zero-length reads allocated frames")
	}
}
