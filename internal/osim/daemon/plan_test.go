package daemon

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/osim/vma"
)

// TestRangerPlansDieWithTheirVMAs pins that Ranger's state dies with
// the VMAs and processes it planned, although the kernel recycles their
// shells. Two worlds run the same campaign: a live process and an
// exiting one map and touch VMAs, one Ranger epoch plans them all, the
// live process unmaps three and the other exits, and then new tenant
// VMAs are mapped, in a new process and in the live one, and touched.
// In the recycled world the exiting process really exits, so the new
// process and all seven new VMAs are the dropped shells. In the fresh
// world the exiting process unmaps its VMAs one by one (the frees Exit
// makes) and stays, and placeholders take the VMA shells, so the new
// tenants are fresh objects. The test checks that:
//   - every recycled VMA comes back with Plan == nil;
//   - the recycled process's table holds no watch until Ranger scans
//     it again, and then exactly one;
//   - the next epoch makes the same migrations (pid, VA, target,
//     order) and leaves the same leaves and Stats in both worlds.
func TestRangerPlansDieWithTheirVMAs(t *testing.T) {
	recycled, fresh := newRangerWorld(64, 1<<20), newRangerWorld(64, 1<<20)
	rq, rnew, rdrop := plansAcrossChurn(t, recycled, true)
	fq, fnew, fdrop := plansAcrossChurn(t, fresh, false)

	for _, v := range rnew {
		if !slices.Contains(rdrop, v) {
			t.Fatalf("recycled world: new VMA %v is not a dropped shell", v)
		}
	}
	for _, v := range fnew {
		if slices.Contains(fdrop, v) {
			t.Fatalf("fresh world: new VMA %v reused a dropped shell", v)
		}
	}
	if rq.ID != fq.ID {
		t.Fatalf("new process IDs %d (recycled) and %d (fresh)", rq.ID, fq.ID)
	}

	got, _ := recycled.epoch(false, nil)
	want, _ := fresh.epoch(false, nil)
	if len(want) == 0 || !slices.ContainsFunc(want, func(m migration) bool { return m.pid == fq.ID }) {
		t.Fatalf("the epoch migrated nothing of the new process: %v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled world migrated\n%v\nfresh world migrated\n%v", got, want)
	}
	if g, w := recycled.leafDump(), fresh.leafDump(); !reflect.DeepEqual(g, w) {
		t.Fatalf("leaves diverge:\nrecycled %v\nfresh    %v", g, w)
	}
	if !reflect.DeepEqual(recycled.k.Stats, fresh.k.Stats) {
		t.Fatalf("stats diverge:\nrecycled %+v\nfresh    %+v", recycled.k.Stats, fresh.k.Stats)
	}
	for _, w := range []*rangerWorld{recycled, fresh} {
		for _, p := range w.k.Processes() {
			p.VMAs.Visit(func(v *vma.VMA) {
				if planOf(v) == nil {
					t.Errorf("VMA %v of process %d unplanned after the epoch", v, p.ID)
				}
			})
		}
	}
	if n := watches(rq); n != 1 {
		t.Errorf("recycled process has %d watches after the epoch, want 1", n)
	}
}

// plansAcrossChurn runs the campaign of TestRangerPlansDieWithTheirVMAs
// in w up to the epoch on the new tenants, with the exiting process
// really exiting when exit is set. It returns the new process, the new
// VMAs and the dropped ones, and checks that no new VMA carries a plan
// and that the new process holds no watch.
func plansAcrossChurn(t *testing.T, w *rangerWorld, exit bool) (q *osim.Process, fresh, drop []*vma.VMA) {
	t.Helper()
	mmap := func(p *osim.Process) *vma.VMA {
		v, err := p.MMap(64 * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// touchAcross faults in the VMAs' pages interleaved, so each VMA's
	// frames are scattered and Ranger has work.
	touchAcross := func(p []*osim.Process, vs []*vma.VMA) {
		for pg := uint64(0); pg < 64; pg++ {
			for i, v := range vs {
				if _, err := p[i].Touch(v.Start.Add(pg*addr.PageSize), true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	live, exiting := w.spawn(), w.k.NewProcess(0)
	var vs []*vma.VMA
	var owners []*osim.Process
	for i := 0; i < 10; i++ {
		p := live
		if i >= 6 {
			p = exiting
		}
		vs, owners = append(vs, mmap(p)), append(owners, p)
	}
	touchAcross(owners, vs)
	w.d.Epoch()
	for _, v := range vs {
		if planOf(v) == nil {
			t.Fatalf("VMA %v not planned", v)
		}
	}
	drop = append([]*vma.VMA{vs[0], vs[2], vs[5]}, vs[6:]...)
	for _, v := range drop[:3] {
		live.MUnmap(v)
	}
	var placeholders []*vma.VMA
	if exit {
		exiting.Exit()
	} else {
		for _, v := range drop[3:] {
			exiting.MUnmap(v)
		}
		for range drop {
			placeholders = append(placeholders, mmap(exiting))
		}
	}

	q = w.spawn()
	if exit != (q == exiting) {
		t.Fatalf("new process reuses the exited shell: %v, want %v", q == exiting, exit)
	}
	if n := watches(q); n != 0 {
		t.Fatalf("new process starts with %d watches", n)
	}
	owners = owners[:0]
	for i := 0; i < 7; i++ {
		p := q
		if i >= 4 {
			p = live
		}
		fresh, owners = append(fresh, mmap(p)), append(owners, p)
	}
	for _, v := range fresh {
		if v.Plan != nil {
			t.Fatalf("new VMA %v carries a plan", v)
		}
	}
	touchAcross(owners, fresh)
	for _, v := range placeholders {
		exiting.MUnmap(v)
	}
	if n := watches(q); n != 0 {
		t.Fatalf("new process holds %d watches before Ranger scans it", n)
	}
	return q, fresh, drop
}

// TestRangerKeepsOneWatch pins that a process subscribes one watch to
// its page table however many plans it makes: after planning and
// unmapping 100 VMAs one by one, the process has exactly one watch,
// and that watch still lowers the watermark of the plan it serves.
func TestRangerKeepsOneWatch(t *testing.T) {
	k := newKernel(t, 16, osim.DefaultPolicy{})
	d := NewRanger(k)
	p := k.NewProcess(0)
	var v *vma.VMA
	for i := 0; i < 100; i++ {
		if v != nil {
			p.MUnmap(v)
		}
		var err error
		if v, err = p.MMap(16 * addr.PageSize); err != nil {
			t.Fatal(err)
		}
		touchAll(t, p, v.Start, v.Size())
		d.Epoch()
		if planOf(v) == nil {
			t.Fatalf("VMA %d not planned", i)
		}
		if n := watches(p); n != 1 {
			t.Fatalf("after %d plans: %d watches, want 1", i+1, n)
		}
	}

	pl := planOf(v)
	for i := 0; i < 20 && pl.mark != v.End; i++ {
		d.Epoch()
	}
	if pl.mark != v.End {
		t.Fatalf("plan did not converge: mark %v, end %v", pl.mark, v.End)
	}
	va := v.Start.Add(3 * addr.PageSize)
	dst, err := k.Machine.AllocBlock(p.HomeZone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !k.MigratePage(p, va, dst) {
		t.Fatal("out-of-band migration failed")
	}
	if pl.mark != va {
		t.Fatalf("mark %v after a redirect at %v", pl.mark, va)
	}
}
