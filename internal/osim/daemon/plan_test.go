package daemon

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/osim/vma"
)

// TestRangerPlansDieWithTheirVMAs pins that Ranger holds on to nothing
// it planned: a VMA unmapped from a live process, and every VMA of an
// exited process, become garbage as soon as the kernel drops them, with
// no Ranger epoch in between. Each dropped VMA carries a finalizer,
// which runs only once nothing reaches the VMA. A plan that pointed
// back at its VMA would put the VMA in a cycle, and the finalizer of
// an object in a cycle never runs.
func TestRangerPlansDieWithTheirVMAs(t *testing.T) {
	k := newKernel(t, 64, osim.DefaultPolicy{})
	d := NewRanger(k)
	d.budget = 1 << 20 // plan every VMA in one epoch
	live := k.NewProcess(0)
	var freed atomic.Int32
	want := planAndDrop(t, k, d, live, &freed)

	for i := 0; i < 100 && freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Fatalf("%d of %d dropped VMAs collected", got, want)
	}
	live.VMAs.Visit(func(v *vma.VMA) {
		if planOf(v) == nil {
			t.Errorf("surviving VMA %v lost its plan", v)
		}
	})
	if n := watches(live); n != 1 {
		t.Errorf("live process has %d watches, want 1", n)
	}
	runtime.KeepAlive(d) // the daemon outlives the collection
}

// planAndDrop maps six VMAs in live and four in a second process, lets
// one Ranger epoch plan them all, then unmaps three of live's (its last
// among them) and exits the second process. It sets a finalizer that
// counts into freed on each dropped VMA and returns how many it
// dropped. It returns before the caller collects, so no stack slot
// holds a dropped VMA.
func planAndDrop(t *testing.T, k *osim.Kernel, d *Ranger, live *osim.Process, freed *atomic.Int32) int32 {
	t.Helper()
	exiting := k.NewProcess(0)
	var lv, ev []*vma.VMA
	for i := 0; i < 10; i++ {
		p := live
		if i >= 6 {
			p = exiting
		}
		v, err := p.MMap(64 * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		touchAll(t, p, v.Start, v.Size())
		if p == live {
			lv = append(lv, v)
		} else {
			ev = append(ev, v)
		}
	}
	d.Epoch()
	drop := append([]*vma.VMA{lv[0], lv[2], lv[5]}, ev...)
	for _, v := range drop {
		if planOf(v) == nil {
			t.Fatalf("VMA %v not planned", v)
		}
		runtime.SetFinalizer(v, func(*vma.VMA) { freed.Add(1) })
	}
	for _, v := range drop[:3] {
		live.MUnmap(v)
	}
	exiting.Exit()
	return int32(len(drop))
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
