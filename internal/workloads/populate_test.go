package workloads

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/virt"
)

// popSnapshot captures every piece of simulator state the range-fault
// path could possibly disturb: kernel clocks, the full Stats structs,
// every page-table leaf (VA, PTE flags included, span), and per-VMA
// accounting — in both translation dimensions when virtualized.
type popSnapshot struct {
	clock      uint64
	stats      osim.Stats
	leaves     []pagetable.Leaf
	vmas       [][4]uint64
	hostClock  uint64
	hostStats  osim.Stats
	hostLeaves []pagetable.Leaf
}

func snapshotEnv(env *Env) popSnapshot {
	s := popSnapshot{clock: env.Kernel.Clock, stats: env.Kernel.Stats}
	env.Proc.PT.Visit(func(l pagetable.Leaf) { s.leaves = append(s.leaves, l) })
	env.Proc.VMAs.Visit(func(v *vma.VMA) {
		s.vmas = append(s.vmas, [4]uint64{uint64(v.Start), v.Pages(), v.MappedPages, v.TouchedPages()})
	})
	if env.VM != nil {
		s.hostClock = env.VM.Host.Clock
		s.hostStats = env.VM.Host.Stats
		env.VM.HostProc.PT.Visit(func(l pagetable.Leaf) { s.hostLeaves = append(s.hostLeaves, l) })
	}
	return s
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
	cases := []struct {
		name  string
		build func(t testing.TB) *Env
	}{
		{"native-thp", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.DefaultPolicy{}), 0)
		}},
		{"native-ingens", func(t testing.TB) *Env {
			k := osim.NewKernel(machineFor(t), osim.DefaultPolicy{})
			env := NewNativeEnv(k, 0)
			env.Daemons = append(env.Daemons, daemon.NewIngens(k))
			return env
		}},
		{"native-ca", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.CAPolicy{}), 0)
		}},
		{"native-eager", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.EagerPolicy{}), 0)
		}},
		{"native-ranger", func(t testing.TB) *Env {
			k := osim.NewKernel(machineFor(t), osim.DefaultPolicy{})
			env := NewNativeEnv(k, 0)
			env.Daemons = append(env.Daemons, daemon.NewRanger(k))
			return env
		}},
		{"native-ideal", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.NewIdealPolicy()), 0)
		}},
		{"nested-ca", func(t testing.TB) *Env {
			return nestedEnv(t, func() osim.Placement { return osim.CAPolicy{} })
		}},
		{"nested-thp-ingens", func(t testing.TB) *Env {
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
				if err := populateLayout(env, populate); err != nil {
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
				t.Errorf("guest stats diverge:\nper-page %+v\nrange    %+v",
					statsBrief(want.stats), statsBrief(got.stats))
			}
			if !reflect.DeepEqual(want.hostStats, got.hostStats) {
				t.Errorf("host stats diverge:\nper-page %+v\nrange    %+v",
					statsBrief(want.hostStats), statsBrief(got.hostStats))
			}
			if !reflect.DeepEqual(want.vmas, got.vmas) {
				t.Errorf("VMA accounting diverges:\nper-page %v\nrange    %v", want.vmas, got.vmas)
			}
			diffLeaves(t, "guest", want.leaves, got.leaves)
			diffLeaves(t, "host", want.hostLeaves, got.hostLeaves)
		})
	}
}

// statsBrief drops the latency trace for readable failure messages (the
// DeepEqual above still compares it).
func statsBrief(s osim.Stats) osim.Stats {
	s.FaultLatencies = []uint64{uint64(len(s.FaultLatencies))}
	return s
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
