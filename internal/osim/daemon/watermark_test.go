package daemon

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
)

// fullScanEpoch is Epoch with the walk Ranger made before it kept
// watermarks: every VMA from v.Start. It is the oracle the watermarked
// Ranger must match. It reports whether the epoch ran out of budget,
// and counts in hugeStops the walks that stopped, out of budget, at a
// settled 2 MiB leaf before any leaf they had to move: the case the
// watermarked walk answers from hugeAt without visiting the leaf.
func (d *Ranger) fullScanEpoch(hugeStops *int) (limited bool) {
	if d.fp.settled(d.Kernel) {
		return false
	}
	before := d.Kernel.Stats.Migrations
	budget := d.budget
	for _, p := range d.Kernel.Processes() {
		if budget == 0 {
			break
		}
		p.VMAs.Visit(func(v *vma.VMA) {
			if v.Kind != vma.Anonymous || budget == 0 {
				return
			}
			budget = d.fullScanVMA(p, v, budget, hugeStops)
		})
	}
	d.fp.record(d.Kernel, d.Kernel.Stats.Migrations == before)
	return budget == 0
}

func (d *Ranger) fullScanVMA(p *osim.Process, v *vma.VMA, budget uint64, hugeStops *int) uint64 {
	k := d.Kernel
	pl := planOf(v)
	if pl == nil {
		pl = d.newPlan(p, v)
	}
	if len(pl.segs) == 0 {
		return budget
	}
	acted := false
	p.PT.VisitRange(v.Start, v.End, func(l pagetable.Leaf) bool {
		page := uint64(l.VA-v.Start) / addr.PageSize
		want, covered := planTarget(pl.segs, page)
		if budget < l.Pages {
			if !acted && (!covered || l.PTE.PFN == want) {
				*hugeStops++
			}
			budget = 0
			return false
		}
		if !covered || l.PTE.PFN == want {
			return true
		}
		acted = true
		order := addr.LeafOrder(l.Pages)
		if err := k.Machine.AllocBlockAt(want, order); err != nil {
			return true
		}
		if !k.MigratePage(p, l.VA, want) {
			k.Machine.FreeBlock(want, order)
			return true
		}
		budget -= l.Pages
		return true
	})
	return budget
}

// planOf returns v's plan, or nil before Ranger first scans v.
func planOf(v *vma.VMA) *rangerPlan {
	pl, _ := v.Plan.(*rangerPlan)
	return pl
}

// watches counts p's planWatch subscriptions on its page table. The
// table's observer list is unexported, so it is read by reflection.
func watches(p *osim.Process) int {
	obs := reflect.ValueOf(p.PT).Elem().FieldByName("obs")
	n := 0
	for i := 0; i < obs.Len(); i++ {
		if o := obs.Index(i).Elem(); o.Type() == reflect.TypeOf(planWatch{}) && o.Field(0).Pointer() == reflect.ValueOf(p).Pointer() {
			n++
		}
	}
	return n
}

// migration is one leaf an epoch moved: the process, the leaf's VA, the
// frame it moved to and its order.
type migration struct {
	pid    int
	va     addr.VirtAddr
	target addr.PFN
	order  int
}

// migRecorder observes one process's page table and lists the leaves
// redirected while on is set.
type migRecorder struct {
	p   *osim.Process
	on  *bool
	out *[]migration
}

func (r *migRecorder) Mapped(addr.VirtAddr, uint64)   {}
func (r *migRecorder) Unmapped(addr.VirtAddr, uint64) {}
func (r *migRecorder) Redirected(va addr.VirtAddr, pages uint64) {
	if *r.on {
		pte, _, _ := r.p.PT.Lookup(va)
		*r.out = append(*r.out, migration{r.p.ID, va, pte.PFN, addr.LeafOrder(pages)})
	}
}

// rangerWorld is one kernel with a Ranger, driven in lockstep with a
// twin: both get the same operations, so their states stay equal as
// long as their Rangers choose the same migrations.
type rangerWorld struct {
	k    *osim.Kernel
	d    *Ranger
	on   bool
	migs []migration
}

func newRangerWorld(blocks uint64, budget uint64) *rangerWorld {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{blocks * addr.MaxOrderPages}})
	w := &rangerWorld{k: osim.NewKernel(m, osim.DefaultPolicy{})}
	w.d = NewRanger(w.k)
	w.d.budget = budget
	return w
}

func (w *rangerWorld) watch(p *osim.Process) *osim.Process {
	p.PT.AddObserver(&migRecorder{p: p, on: &w.on, out: &w.migs})
	return p
}

func (w *rangerWorld) spawn() *osim.Process { return w.watch(w.k.NewProcess(0)) }

// touch faults in pages [first, first+n) of the process's i-th VMA.
func (w *rangerWorld) touch(t testing.TB, p *osim.Process, i int, first, n uint64) {
	t.Helper()
	v := nthVMA(p, i)
	for pg := first; pg < first+n && pg < v.Pages(); pg++ {
		if _, err := p.Touch(v.Start.Add(pg*addr.PageSize), true); err != nil {
			t.Fatal(err)
		}
	}
}

// displace migrates the leaves at vas out of band, as another daemon
// might, each to one of the lowest free blocks of its order. It takes
// every destination before it moves any leaf, so no leaf lands on a
// frame another of them just left.
func (w *rangerWorld) displace(p *osim.Process, vas ...addr.VirtAddr) {
	dst := make([]addr.PFN, len(vas))
	for i, va := range vas {
		_, pages, ok := p.PT.Lookup(va)
		if !ok {
			dst[i] = ^addr.PFN(0)
			continue
		}
		pfn, err := w.k.Machine.AllocBlock(p.HomeZone, addr.LeafOrder(pages))
		if err != nil {
			dst[i] = ^addr.PFN(0)
			continue
		}
		dst[i] = pfn
	}
	for i, va := range vas {
		if dst[i] != ^addr.PFN(0) {
			w.k.MigratePage(p, va, dst[i])
		}
	}
}

// unmapLeaf removes the leaf at va and releases its frame, as MUnmap
// does for each leaf of a VMA.
func (w *rangerWorld) unmapLeaf(p *osim.Process, v *vma.VMA, va addr.VirtAddr) {
	pte, pages, ok := p.PT.Unmap(va)
	if !ok {
		return
	}
	f := w.k.Machine.Frames.Get(pte.PFN)
	if f.MapCount--; f.MapCount <= 0 {
		w.k.Machine.FreeBlock(pte.PFN, addr.LeafOrder(pages))
	}
	p.RSSPages -= pages
	v.MappedPages -= pages
}

// epoch runs one Ranger epoch, the watermarked one or the oracle, and
// returns the migrations it made; for the oracle it also reports
// whether the budget ran out.
func (w *rangerWorld) epoch(oracle bool, hugeStops *int) (migs []migration, limited bool) {
	w.migs, w.on = w.migs[:0], true
	if oracle {
		limited = w.d.fullScanEpoch(hugeStops)
	} else {
		w.d.Epoch()
	}
	w.on = false
	return append([]migration(nil), w.migs...), limited
}

func nthVMA(p *osim.Process, i int) *vma.VMA {
	var out *vma.VMA
	n := 0
	p.VMAs.Visit(func(v *vma.VMA) {
		if n == i {
			out = v
		}
		n++
	})
	return out
}

// leafDump lists every leaf of every live process.
func (w *rangerWorld) leafDump() []string {
	var out []string
	for _, p := range w.k.Processes() {
		p.PT.Visit(func(l pagetable.Leaf) {
			out = append(out, fmt.Sprintf("%d:%v:%d:%d", p.ID, l.VA, l.PTE.PFN, l.Pages))
		})
	}
	return out
}

// lockstep applies op to both worlds.
func lockstep(a, b *rangerWorld, op func(w *rangerWorld)) {
	op(a)
	op(b)
}

// compareEpoch runs one epoch in each world, the watermarked Ranger in
// w and the oracle in o, and fails unless they made the same
// migrations. It reports whether the oracle's epoch ran out of budget.
func compareEpoch(t *testing.T, step int, w, o *rangerWorld, hugeStops *int) bool {
	t.Helper()
	got, _ := w.epoch(false, nil)
	want, limited := o.epoch(true, hugeStops)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: watermarked epoch migrated\n%v\nfull-scan epoch migrated\n%v", step, got, want)
	}
	if !reflect.DeepEqual(w.k.Stats, o.k.Stats) {
		t.Fatalf("step %d: stats diverge:\nwatermarked %+v\nfull scan   %+v", step, w.k.Stats, o.k.Stats)
	}
	return limited
}

// TestWatermarkMatchesFullScan drives a churned multi-tenant campaign —
// tenants arriving with several VMAs, faulting in huge and base pages,
// unmapping VMAs, forking, exiting, and having leaves moved out of
// band — twice in lockstep: once under the watermarked Ranger and once
// under a test-side Ranger that walks every VMA from v.Start. Every
// epoch must make the same migrations (VA, target, order) in both.
// The campaign must include at least 300 epochs that ran out of budget
// and walks that stop, out of budget, at a settled 2 MiB leaf in a
// converged prefix.
func TestWatermarkMatchesFullScan(t *testing.T) {
	for _, budget := range []uint64{addr.HugePages, 700} {
		t.Run(fmt.Sprint("budget-", budget), func(t *testing.T) {
			w, o := newRangerWorld(48, budget), newRangerWorld(48, budget)
			rng := rand.New(rand.NewSource(int64(budget)))
			limitedEpochs, hugeStops := 0, 0
			const steps = 1000
			for step := 0; step < steps; step++ {
				switch r := rng.Intn(100); {
				case r < 6 && len(w.k.Processes()) < 6:
					sizes := make([]uint64, 1+rng.Intn(3))
					for i := range sizes {
						sizes[i] = uint64(1+rng.Intn(5))*addr.HugeSize + uint64(rng.Intn(300))*addr.PageSize
					}
					lockstep(w, o, func(x *rangerWorld) {
						p := x.spawn()
						for _, s := range sizes {
							if _, err := p.MMap(s); err != nil {
								t.Fatal(err)
							}
						}
					})
				case r < 8 && len(w.k.Processes()) > 2:
					i := rng.Intn(len(w.k.Processes()))
					lockstep(w, o, func(x *rangerWorld) { x.k.Processes()[i].Exit() })
				case r < 9 && len(w.k.Processes()) > 0 && len(w.k.Processes()) < 6:
					i := rng.Intn(len(w.k.Processes()))
					lockstep(w, o, func(x *rangerWorld) { x.watch(x.k.Processes()[i].Fork()) })
				case r < 10 && len(w.k.Processes()) > 0:
					i := rng.Intn(len(w.k.Processes()))
					if n := w.k.Processes()[i].VMAs.Len(); n > 1 {
						j := rng.Intn(n)
						lockstep(w, o, func(x *rangerWorld) {
							p := x.k.Processes()[i]
							p.MUnmap(nthVMA(p, j))
						})
					}
				case r < 30 && len(w.k.Processes()) > 0:
					// Move a few leaves out of band, below and above
					// the watermarks alike.
					i := rng.Intn(len(w.k.Processes()))
					p := w.k.Processes()[i]
					if p.VMAs.Len() == 0 {
						break
					}
					j := rng.Intn(p.VMAs.Len())
					v := nthVMA(p, j)
					pages := make([]uint64, 1+rng.Intn(8))
					for k := range pages {
						pages[k] = uint64(rng.Intn(int(v.Pages())))
					}
					lockstep(w, o, func(x *rangerWorld) {
						xp := x.k.Processes()[i]
						vas := make([]addr.VirtAddr, len(pages))
						for k, pg := range pages {
							vas[k] = nthVMA(xp, j).Start.Add(pg * addr.PageSize)
						}
						x.displace(xp, vas...)
					})
				case len(w.k.Processes()) > 0:
					i := rng.Intn(len(w.k.Processes()))
					p := w.k.Processes()[i]
					if p.VMAs.Len() == 0 {
						break
					}
					j := rng.Intn(p.VMAs.Len())
					v := nthVMA(p, j)
					first := uint64(rng.Intn(int(v.Pages())))
					n := uint64(1 + rng.Intn(700))
					lockstep(w, o, func(x *rangerWorld) {
						x.touch(t, x.k.Processes()[i], j, first, n)
					})
				}
				for e := 0; e < 2; e++ {
					if compareEpoch(t, step, w, o, &hugeStops) {
						limitedEpochs++
					}
				}
				if step%50 == 0 && !reflect.DeepEqual(w.leafDump(), o.leafDump()) {
					t.Fatalf("step %d: page tables diverge", step)
				}
			}
			if !reflect.DeepEqual(w.leafDump(), o.leafDump()) {
				t.Fatal("page tables diverge at the end")
			}
			for _, p := range w.k.Processes() {
				if n := watches(p); n > 1 {
					t.Errorf("process %d: %d page-table watches, want at most 1", p.ID, n)
				}
			}
			t.Logf("%d budget-limited epochs, %d stops at a settled huge leaf, %d migrations", limitedEpochs, hugeStops, w.k.Stats.Migrations)
			if limitedEpochs < 300 {
				t.Errorf("only %d budget-limited epochs, want >= 300", limitedEpochs)
			}
			if hugeStops == 0 {
				t.Error("no walk stopped at a settled huge leaf in a converged prefix")
			}
		})
	}
}

// TestWatermarkSeesOutOfBandChanges pins the two events a watermark
// must not miss, each against the full-scan oracle in lockstep. Two
// tenants converge first: P1 with 64 base pages, and P2 with a 2 MiB
// leaf followed by 64 base pages, so P2's converged prefix holds the
// huge leaf.
//   - A Redirect below P1's watermark (another daemon moving a settled
//     leaf) lowers it, and the next epoch moves the leaf back.
//   - With P1 taking part of the budget, P2's walk stops at its huge
//     leaf. Once that leaf is unmapped, the next epoch walks on past
//     where it was and moves P2's displaced base page.
func TestWatermarkSeesOutOfBandChanges(t *testing.T) {
	w, o := newRangerWorld(64, addr.HugePages), newRangerWorld(64, addr.HugePages)
	hugeStops := 0
	lockstep(w, o, func(x *rangerWorld) {
		p1, p2 := x.spawn(), x.spawn()
		if _, err := p1.MMap(64 * addr.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := p2.MMap(addr.HugeSize + 64*addr.PageSize); err != nil {
			t.Fatal(err)
		}
		x.touch(t, p1, 0, 0, 64)
		x.touch(t, p2, 0, 0, addr.HugePages+64)
	})
	for i := 0; i < 50 && !w.d.fp.valid; i++ {
		compareEpoch(t, i, w, o, &hugeStops)
	}
	if !w.d.fp.valid {
		t.Fatal("tenants did not converge in 50 epochs")
	}
	p1, p2 := w.k.Processes()[0], w.k.Processes()[1]
	v1, v2 := nthVMA(p1, 0), nthVMA(p2, 0)
	pl1, pl2 := planOf(v1), planOf(v2)
	if _, pages, _ := p2.PT.Lookup(v2.Start); pages != addr.HugePages {
		t.Fatal("P2 does not start with a 2 MiB leaf")
	}
	if pl1.mark != v1.End || pl2.mark != v2.End || pl2.hugeAt != v2.Start {
		t.Fatalf("converged watermarks: P1 mark %v (end %v), P2 mark %v hugeAt %v (start %v, end %v)",
			pl1.mark, v1.End, pl2.mark, pl2.hugeAt, v2.Start, v2.End)
	}
	inPlace := func(p *osim.Process, v *vma.VMA, va addr.VirtAddr) bool {
		pte, _, _ := p.PT.Lookup(va)
		want, _ := planTarget(planOf(v).segs, uint64(va-v.Start)/addr.PageSize)
		return pte.PFN == want
	}

	// An out-of-band Redirect below P1's watermark.
	leaf := v1.Start.Add(5 * addr.PageSize)
	lockstep(w, o, func(x *rangerWorld) { x.displace(x.k.Processes()[0], leaf) })
	if pl1.mark != leaf {
		t.Fatalf("P1 mark %v after a redirect at %v", pl1.mark, leaf)
	}
	compareEpoch(t, 0, w, o, &hugeStops)
	if !inPlace(p1, v1, leaf) {
		t.Fatal("the epoch after the redirect left P1's leaf displaced")
	}

	// P1 takes 10 pages of budget, so P2's walk stops at its huge leaf
	// and P2's displaced base page stays where it is.
	small := v2.Start.Add((addr.HugePages + 3) * addr.PageSize)
	var first10 []addr.VirtAddr
	for pg := uint64(0); pg < 10; pg++ {
		first10 = append(first10, v1.Start.Add(pg*addr.PageSize))
	}
	displace := func(x *rangerWorld) { x.displace(x.k.Processes()[0], first10...) }
	lockstep(w, o, func(x *rangerWorld) {
		displace(x)
		x.displace(x.k.Processes()[1], small)
	})
	if pl2.mark != small || pl2.hugeAt != v2.Start {
		t.Fatalf("P2 mark %v hugeAt %v, want %v and %v", pl2.mark, pl2.hugeAt, small, v2.Start)
	}
	stops := hugeStops
	compareEpoch(t, 1, w, o, &hugeStops)
	if hugeStops != stops+1 || inPlace(p2, v2, small) {
		t.Fatal("P2's walk did not stop at its converged huge leaf")
	}

	// Unmapping the huge leaf below P2's watermark disarms the stop.
	lockstep(w, o, func(x *rangerWorld) {
		p := x.k.Processes()[1]
		x.unmapLeaf(p, p.VMAs.Find(v2.Start), v2.Start)
		displace(x)
	})
	if pl2.mark != v2.Start || pl2.hugeAt < pl2.mark {
		t.Fatalf("P2 mark %v hugeAt %v after unmapping the huge leaf at %v", pl2.mark, pl2.hugeAt, v2.Start)
	}
	compareEpoch(t, 2, w, o, &hugeStops)
	if !inPlace(p2, v2, small) {
		t.Fatal("the epoch after the unmap did not reach P2's displaced page")
	}
	if !reflect.DeepEqual(w.leafDump(), o.leafDump()) {
		t.Fatal("page tables diverge")
	}
}
