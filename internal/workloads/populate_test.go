package workloads

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
	"repro/internal/virt"
)

// popSnapshot captures every piece of simulator state the range-fault
// path could possibly disturb: kernel clocks, the full Stats structs,
// every page-table leaf (VA, PTE flags included, span), per-VMA
// accounting, and the allocator state — in both translation dimensions
// when virtualized.
type popSnapshot struct {
	clock       uint64
	stats       osim.Stats
	leaves      []pagetable.Leaf
	vmas        [][4]uint64
	machine     machineState
	hostClock   uint64
	hostStats   osim.Stats
	hostLeaves  []pagetable.Leaf
	hostMachine machineState
}

// machineState is a machine's allocator state: each zone's free lists
// in list order (the MAX_ORDER list included) and every frame record.
// Leaves and counters see free-list order only through which frames
// later allocations happen to get; this sees it directly.
type machineState struct {
	freeBlocks [][][2]uint64
	frames     []frame.Frame
}

func machineStateOf(m *zone.Machine) machineState {
	var s machineState
	for _, z := range m.Zones {
		var blocks [][2]uint64
		z.Buddy.VisitFreeBlocks(func(pfn addr.PFN, order int) {
			blocks = append(blocks, [2]uint64{uint64(pfn), uint64(order)})
		})
		s.freeBlocks = append(s.freeBlocks, blocks)
	}
	s.frames = append(s.frames, m.Frames.Slice(m.Frames.Base(), m.Frames.Len())...)
	return s
}

func snapshotEnv(env *Env) popSnapshot {
	s := popSnapshot{clock: env.Kernel.Clock, stats: env.Kernel.Stats, machine: machineStateOf(env.Kernel.Machine)}
	env.Proc.PT.Visit(func(l pagetable.Leaf) { s.leaves = append(s.leaves, l) })
	env.Proc.VMAs.Visit(func(v *vma.VMA) {
		s.vmas = append(s.vmas, [4]uint64{uint64(v.Start), v.Pages(), v.MappedPages, v.TouchedPages()})
	})
	if env.VM != nil {
		s.hostClock = env.VM.Host.Clock
		s.hostStats = env.VM.Host.Stats
		s.hostMachine = machineStateOf(env.VM.Host.Machine)
		env.VM.HostProc.PT.Visit(func(l pagetable.Leaf) { s.hostLeaves = append(s.hostLeaves, l) })
	}
	return s
}

// caChurnLayout drives CA paging through the cases its extent fault
// path must cut short or decline, populating every range through
// populate and touching single pages through Env.Touch:
//
//   - VMAs populated by random partial ranges, first with THP on, so
//     huge-target misses re-place them, then with THP off (as under
//     Ingens), so 4 KiB runs cross the midpoints where NearestOffset
//     switches entries;
//   - MUnmap and MMap interleaved with the populations, on a small
//     machine, so fallbacks and other VMAs take frames out of the way
//     of later targets;
//   - a VMA touched in descending order first and populated ascending
//     afterwards, so the backward contiguity scan reaches untagged
//     chains both shorter and longer than the threshold.
func caChurnLayout(env *Env, populate func(env *Env, v *vma.VMA, start addr.VirtAddr, bytes uint64) error) error {
	rng := rand.New(rand.NewSource(23))
	var vmas []*vma.VMA
	var mapped uint64
	budget := env.Kernel.Machine.FreePages() / 3
	for step := 0; step < 120; step++ {
		env.Kernel.THPEnabled = step < 60
		switch op := rng.Intn(5); {
		case op == 0 || len(vmas) == 0:
			pages := uint64(64 + rng.Intn(3*addr.HugePages))
			for len(vmas) > 0 && mapped+pages > budget {
				env.Proc.MUnmap(vmas[0])
				mapped -= vmas[0].Pages()
				vmas = vmas[1:]
			}
			v, err := env.MMap(pages * addr.PageSize)
			if err != nil {
				return err
			}
			vmas = append(vmas, v)
			mapped += pages
		case op == 1 && len(vmas) > 2:
			i := rng.Intn(len(vmas))
			env.Proc.MUnmap(vmas[i])
			mapped -= vmas[i].Pages()
			vmas = append(vmas[:i], vmas[i+1:]...)
		default:
			v := vmas[rng.Intn(len(vmas))]
			start := uint64(rng.Intn(int(v.Pages())))
			n := 1 + uint64(rng.Intn(int(v.Pages()-start)))
			if err := populate(env, v, v.Start.Add(start*addr.PageSize), n*addr.PageSize); err != nil {
				return err
			}
		}
	}
	// Page 0 places the VMA; pages 100 down to 41 then take their
	// targets but see an unmapped page behind them, staying untagged.
	v, err := env.MMap(300 * addr.PageSize)
	if err != nil {
		return err
	}
	page := func(i uint64) addr.VirtAddr { return v.Start.Add(i * addr.PageSize) }
	if err := env.Touch(page(0), true); err != nil {
		return err
	}
	for i := uint64(100); i > 40; i-- {
		if err := env.Touch(page(i), true); err != nil {
			return err
		}
	}
	// With the threshold at 32 pages: [1,5) and [5,31) leave a chain
	// of 31, one page short; [101,200) finds an untagged chain already
	// past it behind; the chains [210,250) and [260,292) reach it
	// part-way through and at their last page.
	for _, r := range [][2]uint64{{1, 5}, {5, 31}, {101, 200}, {210, 212}, {212, 250}, {260, 262}, {262, 292}} {
		if err := populate(env, v, page(r[0]), (r[1]-r[0])*addr.PageSize); err != nil {
			return err
		}
	}

	// A 4-region VMA placed by its region 0, whose region 3 then misses
	// its huge target and re-places: with THP off, region 1's pages
	// switch from the first Offset entry to the second 257 pages in (a
	// midpoint tie goes to the earlier entry). A pinned frame under
	// region 1's targets stops a run part-way, and the run behind it
	// crosses free-block edges.
	env.Kernel.THPEnabled = true
	w, err := env.MMap(4 * addr.HugeSize)
	if err != nil {
		return err
	}
	at := func(region, i uint64) addr.VirtAddr { return w.Start.Add(region*addr.HugeSize + i*addr.PageSize) }
	if err := env.Touch(at(0, 0), true); err != nil {
		return err
	}
	if off, ok := w.NearestOffset(at(0, 0)); ok {
		m := env.Kernel.Machine
		m.Reserve(off.TargetPFN(at(3, 0)), 1) // a busy target is fine
		m.Reserve(off.TargetPFN(at(1, 100)), 1)
	}
	if err := env.Touch(at(3, 0), true); err != nil {
		return err
	}
	env.Kernel.THPEnabled = false
	return populate(env, w, at(1, 0), addr.HugeSize)
}

// nestedEnv builds a VM (experiment-sized host and guest) with the same
// placement policy in both dimensions.
func nestedEnv(t testing.TB, pl func() osim.Placement) *Env {
	t.Helper()
	host := zone.NewMachine(zone.Config{ZonePages: []uint64{
		160 * addr.MaxOrderPages, 160 * addr.MaxOrderPages,
	}})
	hk := osim.NewKernel(host, pl())
	vm, err := virt.New(hk, virt.Config{
		MemBytes:    768 << 20,
		GuestZones:  []uint64{96 * addr.MaxOrderPages, 96 * addr.MaxOrderPages},
		GuestPolicy: pl(),
	})
	if err != nil {
		t.Fatalf("virt.New: %v", err)
	}
	return NewVirtEnv(vm, 0)
}

// touchLoop is the per-page reference for PopulateRange: one write
// Touch per page, every daemon polled after every touch.
func touchLoop(env *Env, v *vma.VMA, start addr.VirtAddr, bytes uint64) error {
	for off := uint64(0); off < addr.BytesToPages(bytes)*addr.PageSize; off += addr.PageSize {
		if err := env.Touch(start.Add(off), true); err != nil {
			return err
		}
	}
	return nil
}

// populateLayout builds SVM's address-space layout — a slack feature
// VMA populated in chunks interleaved with page-cache reads, then a
// model VMA and the small auxiliary VMAs — populating every range
// through populate.
func populateLayout(env *Env, populate func(env *Env, v *vma.VMA, start addr.VirtAddr, bytes uint64) error) error {
	f := env.Kernel.Cache.CreateFile(svmDatasetBytes)
	feat, err := env.MMapSlack(svmFeatureBytes, svmSlack)
	if err != nil {
		return err
	}
	const chunk = 4 * MiB
	for off := uint64(0); off < svmFeatureBytes; off += chunk {
		if off < svmDatasetBytes {
			if err := env.Kernel.Cache.Read(f, off, min(chunk, svmDatasetBytes-off)); err != nil {
				return err
			}
		}
		if err := populate(env, feat, feat.Start.Add(off), min(chunk, svmFeatureBytes-off)); err != nil {
			return err
		}
	}
	sizes := []uint64{svmModelBytes}
	for i := 0; i < svmSmallVMACount; i++ {
		sizes = append(sizes, svmSmallVMABytes)
	}
	for _, bytes := range sizes {
		v, err := env.MMap(bytes)
		if err != nil {
			return err
		}
		if err := populate(env, v, v.Start, v.Size()); err != nil {
			return err
		}
	}
	return nil
}

// TestPopulateRangeMatchesTouchLoop pins the range-fault batching
// contract: populating through PopulateRange leaves the simulator in a
// state indistinguishable from the per-page Touch loop over the same
// mmapped layout — same page-table leaves (flags included), same fault
// counters and latency traces, same logical clocks, same VMA
// accounting — under every placement policy, with and without
// clock-gated daemons, native and nested.
func TestPopulateRangeMatchesTouchLoop(t *testing.T) {
	caChurn := func(t testing.TB, hog bool) *Env {
		m := zone.NewMachine(zone.Config{
			ZonePages:      []uint64{16 * addr.MaxOrderPages, 16 * addr.MaxOrderPages},
			SortedMaxOrder: true,
		})
		if hog {
			// HogFine pins 2 MiB chunks; the odd pages pinned between
			// them leave free clusters at unaligned starts, so huge
			// targets miss and re-place, and 4 KiB runs meet busy
			// targets part-way.
			rng := rand.New(rand.NewSource(3))
			HogFine(m, 0.3, rng)
			for pfn := addr.PFN(0); uint64(pfn) < m.TotalPages(); pfn += addr.PFN(700 + rng.Intn(1200)) {
				m.Reserve(pfn, uint64(1+rng.Intn(3))) // a busy page is fine
			}
		}
		return NewNativeEnv(osim.NewKernel(m, osim.CAPolicy{}), 0)
	}
	cases := []struct {
		name   string
		build  func(t testing.TB) *Env
		layout func(*Env, func(*Env, *vma.VMA, addr.VirtAddr, uint64) error) error
	}{
		{name: "native-thp", build: func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.DefaultPolicy{}), 0)
		}},
		{name: "native-ingens", build: func(t testing.TB) *Env {
			k := osim.NewKernel(machineFor(t), osim.DefaultPolicy{})
			env := NewNativeEnv(k, 0)
			env.Daemons = append(env.Daemons, daemon.NewIngens(k))
			return env
		}},
		{name: "native-ca", build: func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.CAPolicy{}), 0)
		}},
		{name: "native-eager", build: func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.EagerPolicy{}), 0)
		}},
		{name: "native-ranger", build: func(t testing.TB) *Env {
			k := osim.NewKernel(machineFor(t), osim.DefaultPolicy{})
			env := NewNativeEnv(k, 0)
			env.Daemons = append(env.Daemons, daemon.NewRanger(k))
			return env
		}},
		{name: "native-ideal", build: func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.NewIdealPolicy()), 0)
		}},
		{name: "native-ca-churn", build: func(t testing.TB) *Env { return caChurn(t, false) }, layout: caChurnLayout},
		{name: "native-ca-hogfine-churn", build: func(t testing.TB) *Env { return caChurn(t, true) }, layout: caChurnLayout},
		{name: "native-ca-hogfine", build: func(t testing.TB) *Env {
			m := machineFor(t)
			HogFine(m, 0.3, rand.New(rand.NewSource(3)))
			return NewNativeEnv(osim.NewKernel(m, osim.CAPolicy{}), 0)
		}},
		{name: "nested-ca", build: func(t testing.TB) *Env {
			return nestedEnv(t, func() osim.Placement { return osim.CAPolicy{} })
		}},
		{name: "nested-thp-ingens", build: func(t testing.TB) *Env {
			env := nestedEnv(t, func() osim.Placement { return osim.DefaultPolicy{} })
			env.Daemons = append(env.Daemons, daemon.NewIngens(env.Kernel))
			return env
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(name string, populate func(*Env, *vma.VMA, addr.VirtAddr, uint64) error) popSnapshot {
				env := c.build(t)
				layout := c.layout
				if layout == nil {
					layout = populateLayout
				}
				if err := layout(env, populate); err != nil {
					t.Fatalf("%s layout: %v", name, err)
				}
				return snapshotEnv(env)
			}
			want, got := run("per-page", touchLoop), run("range", (*Env).PopulateRange)
			if want.clock != got.clock {
				t.Errorf("guest clock: per-page %d, range %d", want.clock, got.clock)
			}
			if want.hostClock != got.hostClock {
				t.Errorf("host clock: per-page %d, range %d", want.hostClock, got.hostClock)
			}
			if !reflect.DeepEqual(want.stats, got.stats) {
				t.Errorf("guest stats diverge:\nper-page %+v\nrange    %+v", want.stats, got.stats)
			}
			if !reflect.DeepEqual(want.hostStats, got.hostStats) {
				t.Errorf("host stats diverge:\nper-page %+v\nrange    %+v", want.hostStats, got.hostStats)
			}
			if !reflect.DeepEqual(want.vmas, got.vmas) {
				t.Errorf("VMA accounting diverges:\nper-page %v\nrange    %v", want.vmas, got.vmas)
			}
			diffLeaves(t, "guest", want.leaves, got.leaves)
			diffLeaves(t, "host", want.hostLeaves, got.hostLeaves)
			diffMachines(t, "guest", want.machine, got.machine)
			diffMachines(t, "host", want.hostMachine, got.hostMachine)
		})
	}
}

// TestFaultLatencyCounts checks that the kernel's latency counts grow
// with the number of distinct latencies, not with the number of faults:
// a 100k-page CA populate (4 KiB faults, per page and by extent) leaves
// one entry per distinct latency, summing to the fault count, and one
// FaultRun of n pages adds n to the 4 KiB count alone. Traced, the
// kernel takes the same extent path, its event counts equal the fault
// and target-hit counts, and FaultRun emits a target-hit and a 4 KiB
// fault event per page, at ascending VAs and clocks.
func TestFaultLatencyCounts(t *testing.T) {
	for _, traced := range []bool{false, true} {
		const pages = 100_000
		m := zone.NewMachine(zone.Config{ZonePages: []uint64{128 * addr.MaxOrderPages}})
		k := osim.NewKernel(m, osim.CAPolicy{})
		k.THPEnabled = false
		var tr *trace.Tracer
		if traced {
			tr = trace.New()
			k.SetTracer(tr)
		}
		env := NewNativeEnv(k, 0)
		v, err := env.Proc.MMap(pages * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.PopulateRange(v, v.Start, v.Size()); err != nil {
			t.Fatal(err)
		}
		lat4K := uint64(osim.FaultBaseNs + osim.ZeroPageNs)
		lats := k.Stats.FaultLatencies
		var total uint64
		for lat, n := range lats {
			if lat != lat4K && lat != lat4K+osim.PlacementNs {
				t.Errorf("traced %v: latency %d ns counted %d times, want only %d or %d", traced, lat, n, lat4K, lat4K+osim.PlacementNs)
			}
			total += n
		}
		if total != pages || k.Stats.TotalFaults() != pages {
			t.Fatalf("traced %v: counts sum to %d over %d faults, want %d", traced, total, k.Stats.TotalFaults(), pages)
		}

		w, err := env.Proc.MMap(64 * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Proc.Touch(w.Start, true); err != nil { // places w
			t.Fatal(err)
		}
		before, clock := maps.Clone(lats), k.Clock
		from := len(tr.Events())
		n := env.Proc.FaultRun(w, w.Start.Add(addr.PageSize), 63)
		if n == 0 {
			t.Fatalf("traced %v: FaultRun declined a placed, unmapped run", traced)
		}
		before[lat4K] += n
		if !maps.Equal(lats, before) || k.Clock != clock+n*lat4K {
			t.Fatalf("traced %v: FaultRun of %d pages: counts %v, clock +%d; want %v, clock +%d",
				traced, n, lats, k.Clock-clock, before, n*lat4K)
		}
		if !traced {
			continue
		}
		if tr.Count(trace.EvFault4K) != k.Stats.Faults[osim.Fault4K] || tr.Count(trace.EvCATargetHit) != k.Stats.CATargetHits {
			t.Fatalf("%d fault.4k and %d ca.target_hit events; want %d and %d", tr.Count(trace.EvFault4K),
				tr.Count(trace.EvCATargetHit), k.Stats.Faults[osim.Fault4K], k.Stats.CATargetHits)
		}
		var faults, hits uint64
		for _, e := range tr.Events()[from:] {
			switch e.Kind {
			case trace.EvCATargetHit:
				if want := uint64(w.Start.Add((hits + 1) * addr.PageSize)); e.A != want {
					t.Fatalf("target hit %d at va %#x, want %#x", hits, e.A, want)
				}
				hits++
			case trace.EvFault4K:
				faults++
				va, at := uint64(w.Start.Add(faults*addr.PageSize)), clock+faults*lat4K
				if e.A != va || e.B != lat4K || e.C != at {
					t.Fatalf("fault %d: (va %#x, %d ns, clock %d), want (%#x, %d ns, clock %d)", faults-1, e.A, e.B, e.C, va, lat4K, at)
				}
			}
		}
		if faults != n || hits != n {
			t.Fatalf("FaultRun of %d pages emitted %d fault.4k and %d ca.target_hit events", n, faults, hits)
		}
	}
}

func diffLeaves(t *testing.T, dim string, want, got []pagetable.Leaf) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s page table: per-page %d leaves, range %d", dim, len(want), len(got))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s leaf %d: per-page %+v, range %+v", dim, i, want[i], got[i])
			return
		}
	}
}

func diffMachines(t *testing.T, dim string, want, got machineState) {
	t.Helper()
	for z := range want.freeBlocks {
		if !reflect.DeepEqual(want.freeBlocks[z], got.freeBlocks[z]) {
			t.Errorf("%s zone %d free lists (list order) diverge", dim, z)
		}
	}
	if len(want.freeBlocks) != len(got.freeBlocks) {
		t.Errorf("%s machine: per-page %d zones, range %d", dim, len(want.freeBlocks), len(got.freeBlocks))
	}
	for i := range want.frames {
		if want.frames[i] != got.frames[i] {
			t.Errorf("%s frame %d: per-page %+v, range %+v", dim, i, want.frames[i], got.frames[i])
			return
		}
	}
}

// TestPopulateRangeZeroAllocs pins the steady-state cost of the range
// path: re-populating an already-mapped VMA (the all-present fast case,
// one quiet run per leaf table) must not touch the heap.
func TestPopulateRangeZeroAllocs(t *testing.T) {
	k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
	env := NewNativeEnv(k, 0)
	v, err := env.MMap(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.PopulateRange(v, v.Start, v.Size()); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := env.PopulateRange(v, v.Start, v.Size()); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state PopulateRange allocates %.2f objects per call, want 0", avg)
	}
}

// TestUnhogRestoresFreeMemory pins that both hog variants release
// exactly what they pinned: free-page count, the full free-block
// histogram, and the buddy invariants (including the non-empty-order
// bitmap) all return to their pre-hog state.
func TestUnhogRestoresFreeMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		hog  func(m *zone.Machine) []HogExtent
	}{
		{"hog", func(m *zone.Machine) []HogExtent { return Hog(m, 0.25, rand.New(rand.NewSource(11))) }},
		{"hogfine", func(m *zone.Machine) []HogExtent { return HogFine(m, 0.25, rand.New(rand.NewSource(11))) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := machineFor(t)
			free0 := m.FreePages()
			hist0 := m.FreeBlockHistogram()
			ext := tc.hog(m)
			if len(ext) == 0 {
				t.Fatal("hog pinned nothing")
			}
			if m.FreePages() == free0 {
				t.Fatal("hog did not reduce free memory")
			}
			Unhog(m, ext)
			if m.FreePages() != free0 {
				t.Fatalf("free pages %d after unhog, want %d", m.FreePages(), free0)
			}
			if hist := m.FreeBlockHistogram(); !reflect.DeepEqual(hist, hist0) {
				t.Fatalf("free-block histogram not restored:\nbefore %v\nafter  %v", hist0, hist)
			}
			for zi, z := range m.Zones {
				if err := z.Buddy.CheckInvariants(); err != nil {
					t.Fatalf("zone %d invariants after unhog: %v", zi, err)
				}
			}
		})
	}
}
