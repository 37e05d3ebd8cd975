package daemon

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
)

func newKernel(t testing.TB, nblocks uint64, p osim.Placement) *osim.Kernel {
	t.Helper()
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{nblocks * addr.MaxOrderPages}})
	return osim.NewKernel(m, p)
}

func touchAll(t testing.TB, p *osim.Process, start addr.VirtAddr, bytes uint64) {
	t.Helper()
	for off := uint64(0); off < bytes; off += addr.PageSize {
		if _, err := p.Touch(start.Add(off), true); err != nil {
			t.Fatal(err)
		}
	}
}

// runs extracts physically contiguous mapping run lengths (descending).
func runs(p *osim.Process) []uint64 {
	var out []uint64
	var cur uint64
	var nextVA addr.VirtAddr
	var nextPFN addr.PFN
	p.PT.Visit(func(l pagetable.Leaf) {
		if cur > 0 && l.VA == nextVA && l.PTE.PFN == nextPFN {
			cur += l.Pages
		} else {
			if cur > 0 {
				out = append(out, cur)
			}
			cur = l.Pages
		}
		nextVA = l.VA.Add(l.Pages * addr.PageSize)
		nextPFN = l.PTE.PFN + addr.PFN(l.Pages)
	})
	if cur > 0 {
		out = append(out, cur)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

func TestIngensDisablesSyncTHP(t *testing.T) {
	k := newKernel(t, 16, osim.DefaultPolicy{})
	NewIngens(k)
	if k.THPEnabled {
		t.Fatal("Ingens should disable synchronous THP")
	}
}

func TestIngensPromotesUtilizedRegions(t *testing.T) {
	k := newKernel(t, 16, osim.DefaultPolicy{})
	d := NewIngens(k)
	p := k.NewProcess(0)
	v, _ := p.MMap(2 * addr.HugeSize)
	touchAll(t, p, v.Start, v.Size())
	if p.PT.Mapped2M() != 0 {
		t.Fatal("pages should start 4K under Ingens")
	}
	d.Scan()
	if p.PT.Mapped2M() != 2 {
		t.Fatalf("promoted %d regions, want 2", p.PT.Mapped2M())
	}
	if p.PT.Mapped4K() != 0 {
		t.Fatalf("leftover 4K mappings: %d", p.PT.Mapped4K())
	}
	if k.Stats.Promotions != 2 {
		t.Fatalf("promotions = %d", k.Stats.Promotions)
	}
	// Idempotent: second scan promotes nothing.
	d.Scan()
	if k.Stats.Promotions != 2 {
		t.Fatal("re-promotion happened")
	}
	// No frame leak: RSS regions stay intact.
	if v.MappedPages != v.Pages() {
		t.Fatalf("mapped pages = %d", v.MappedPages)
	}
}

func TestIngensSkipsUnderutilizedRegions(t *testing.T) {
	k := newKernel(t, 16, osim.DefaultPolicy{})
	d := NewIngens(k)
	p := k.NewProcess(0)
	v, _ := p.MMap(addr.HugeSize)
	// Touch only 50% — below the 90% threshold.
	touchAll(t, p, v.Start, v.Size()/2)
	d.Scan()
	if k.Stats.Promotions != 0 {
		t.Fatal("underutilized region promoted")
	}
	// Ingens bloat stays minimal: only touched pages are resident.
	if v.MappedPages != 256 {
		t.Fatalf("mapped = %d, want 256", v.MappedPages)
	}
}

func TestIngensMaybeHonoursPeriod(t *testing.T) {
	k := newKernel(t, 16, osim.DefaultPolicy{})
	d := NewIngens(k)
	p := k.NewProcess(0)
	v, _ := p.MMap(addr.HugeSize)
	touchAll(t, p, v.Start, v.Size())
	clockBefore := k.Clock
	d.gate.lastRun = clockBefore // pretend we just ran
	d.Maybe()
	if k.Stats.Promotions != 0 {
		t.Fatal("Maybe ran before period elapsed")
	}
	k.Tick(osim.DaemonPeriodNs)
	d.Maybe()
	if k.Stats.Promotions != 1 {
		t.Fatal("Maybe did not run after period")
	}
}

func TestRangerCoalescesScatteredFootprint(t *testing.T) {
	// Allocate under the default policy with adversarial interleaving,
	// then let Ranger migrate everything into one run.
	k := newKernel(t, 64, osim.DefaultPolicy{})
	d := NewRanger(k)
	pa, pb := k.NewProcess(0), k.NewProcess(0)
	va, _ := pa.MMap(8 * addr.HugeSize)
	vb, _ := pb.MMap(8 * addr.HugeSize)
	for off := uint64(0); off < va.Size(); off += addr.HugeSize {
		if _, err := pa.Touch(va.Start.Add(off), true); err != nil {
			t.Fatal(err)
		}
		if _, err := pb.Touch(vb.Start.Add(off), true); err != nil {
			t.Fatal(err)
		}
	}
	if len(runs(pa)) == 1 {
		t.Skip("interleaving did not scatter; nothing to defragment")
	}
	// Converge over epochs.
	for i := 0; i < 20; i++ {
		d.Epoch()
	}
	if got := runs(pa); len(got) != 1 {
		t.Fatalf("ranger left %d runs for A: %v", len(got), got)
	}
	if k.Stats.Migrations == 0 || k.Stats.Shootdowns == 0 {
		t.Fatal("ranger migrations not accounted")
	}
}

func TestRangerRateLimit(t *testing.T) {
	k := newKernel(t, 64, osim.DefaultPolicy{})
	d := NewRanger(k)
	d.budget = 512 // one huge page per epoch
	pa, pb := k.NewProcess(0), k.NewProcess(0)
	va, _ := pa.MMap(4 * addr.HugeSize)
	vb, _ := pb.MMap(4 * addr.HugeSize)
	for off := uint64(0); off < va.Size(); off += addr.HugeSize {
		pa.Touch(va.Start.Add(off), true)
		pb.Touch(vb.Start.Add(off), true)
	}
	migBefore := k.Stats.Migrations
	d.Epoch()
	if got := k.Stats.Migrations - migBefore; got > 512 {
		t.Fatalf("epoch migrated %d pages, budget 512", got)
	}
}

func TestRangerConvergesIncrementally(t *testing.T) {
	// Migration progress should be monotonic: coverage of the largest
	// run never decreases across epochs.
	k := newKernel(t, 64, osim.DefaultPolicy{})
	d := NewRanger(k)
	d.budget = 1024
	pa, pb := k.NewProcess(0), k.NewProcess(0)
	va, _ := pa.MMap(8 * addr.HugeSize)
	vb, _ := pb.MMap(8 * addr.HugeSize)
	for off := uint64(0); off < va.Size(); off += addr.HugeSize {
		pa.Touch(va.Start.Add(off), true)
		pb.Touch(vb.Start.Add(off), true)
	}
	var prev uint64
	for i := 0; i < 30; i++ {
		d.Epoch()
		r := runs(pa)
		if len(r) == 0 {
			t.Fatal("no runs")
		}
		if r[0] < prev {
			t.Fatalf("largest run regressed: %d -> %d", prev, r[0])
		}
		prev = r[0]
	}
	if prev != va.Pages() {
		t.Fatalf("did not converge: largest run %d of %d", prev, va.Pages())
	}
}

func TestRangerLeavesInPlaceMappingsAlone(t *testing.T) {
	// A footprint that is already contiguous from CA paging needs no
	// migrations once anchored at its own location... Ranger anchors at
	// the largest free cluster though, so it may still move everything
	// once. What must hold: after convergence, zero further migrations.
	k := newKernel(t, 64, osim.CAPolicy{})
	d := NewRanger(k)
	p := k.NewProcess(0)
	v, _ := p.MMap(8 * addr.HugeSize)
	touchAll(t, p, v.Start, v.Size())
	for i := 0; i < 10; i++ {
		d.Epoch()
	}
	before := k.Stats.Migrations
	d.Epoch()
	if k.Stats.Migrations != before {
		t.Fatal("ranger keeps migrating a converged footprint")
	}
}

// TestMaybeNMatchesMaybeLoop pins the BatchDaemon contract the
// range-fault population path relies on: MaybeN(n) must leave the
// kernel in exactly the state n back-to-back Maybe calls do — gate
// checks, epoch work (promotions, migrations, their clock Ticks), and
// re-fires when an epoch's own latency pushes the clock past another
// period, all included. Two interleaved processes give both daemons
// real work (fragmented frames for Ranger, 4K regions for Ingens).
func TestMaybeNMatchesMaybeLoop(t *testing.T) {
	type batcher interface {
		Maybe()
		MaybeN(uint64)
	}
	cases := []struct {
		name string
		make func(k *osim.Kernel) batcher
	}{
		{"ingens", func(k *osim.Kernel) batcher { return NewIngens(k) }},
		{"ranger", func(k *osim.Kernel) batcher { return NewRanger(k) }},
	}
	const n = 5000
	leavesOf := func(p *osim.Process) []pagetable.Leaf {
		var out []pagetable.Leaf
		p.PT.Visit(func(l pagetable.Leaf) { out = append(out, l) })
		return out
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(batched bool) (*osim.Kernel, []pagetable.Leaf, []pagetable.Leaf) {
				k := newKernel(t, 64, osim.DefaultPolicy{})
				d := c.make(k)
				p1 := k.NewProcess(0)
				p2 := k.NewProcess(0)
				v1, err := p1.MMap(4 * addr.HugeSize)
				if err != nil {
					t.Fatal(err)
				}
				v2, err := p2.MMap(4 * addr.HugeSize)
				if err != nil {
					t.Fatal(err)
				}
				for off := uint64(0); off < v1.Size(); off += addr.PageSize {
					if _, err := p1.Touch(v1.Start.Add(off), true); err != nil {
						t.Fatal(err)
					}
					if _, err := p2.Touch(v2.Start.Add(off), true); err != nil {
						t.Fatal(err)
					}
				}
				k.Tick(3_000_000) // past the period: the first poll fires
				if batched {
					d.MaybeN(n)
				} else {
					for i := 0; i < n; i++ {
						d.Maybe()
					}
				}
				return k, leavesOf(p1), leavesOf(p2)
			}
			ka, a1, a2 := run(false)
			kb, b1, b2 := run(true)
			if ka.Clock != kb.Clock {
				t.Errorf("clock: loop %d, batched %d", ka.Clock, kb.Clock)
			}
			if !reflect.DeepEqual(ka.Stats, kb.Stats) {
				t.Errorf("stats diverge:\nloop    %+v\nbatched %+v", ka.Stats, kb.Stats)
			}
			if !reflect.DeepEqual(a1, b1) || !reflect.DeepEqual(a2, b2) {
				t.Error("page tables diverge between Maybe loop and MaybeN")
			}
		})
	}
}

// TestSettledEpochSkipIsExact pins the fixpoint memo's claim: once a
// daemon's epoch changed nothing and no input moved since, running the
// epoch in full again must change nothing either, so skipping it is
// exact. Each daemon is settled on two interleaved processes (4K
// regions for Ingens to promote, scattered frames for Ranger to
// migrate), then the memo is cleared and one full epoch must leave
// promotions, migrations, and both mutation counters as they were.
func TestSettledEpochSkipIsExact(t *testing.T) {
	cases := []struct {
		name string
		make func(k *osim.Kernel) (epoch func(), fp *fixpoint)
	}{
		{"ingens", func(k *osim.Kernel) (func(), *fixpoint) {
			d := NewIngens(k)
			return d.Scan, &d.fp
		}},
		{"ranger", func(k *osim.Kernel) (func(), *fixpoint) {
			d := NewRanger(k)
			return d.Epoch, &d.fp
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := newKernel(t, 64, osim.DefaultPolicy{})
			epoch, fp := c.make(k)
			p1, p2 := k.NewProcess(0), k.NewProcess(0)
			v1, err := p1.MMap(4 * addr.HugeSize)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := p2.MMap(4 * addr.HugeSize)
			if err != nil {
				t.Fatal(err)
			}
			for off := uint64(0); off < v1.Size(); off += addr.PageSize {
				if _, err := p1.Touch(v1.Start.Add(off), true); err != nil {
					t.Fatal(err)
				}
				if _, err := p2.Touch(v2.Start.Add(off), true); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100 && !fp.valid; i++ {
				epoch()
			}
			if !fp.valid {
				t.Fatal("daemon did not settle in 100 epochs")
			}
			if k.Stats.Promotions+k.Stats.Migrations == 0 {
				t.Fatal("daemon settled without doing any work")
			}
			promotions, migrations := k.Stats.Promotions, k.Stats.Migrations
			seq, muts := k.StateSeq(), k.Machine.Mutations()
			fp.valid = false
			epoch()
			if k.Stats.Promotions != promotions || k.Stats.Migrations != migrations {
				t.Errorf("full epoch after settling: promotions %d -> %d, migrations %d -> %d",
					promotions, k.Stats.Promotions, migrations, k.Stats.Migrations)
			}
			if k.StateSeq() != seq || k.Machine.Mutations() != muts {
				t.Errorf("full epoch after settling: state seq %d -> %d, machine mutations %d -> %d",
					seq, k.StateSeq(), muts, k.Machine.Mutations())
			}
		})
	}
}
