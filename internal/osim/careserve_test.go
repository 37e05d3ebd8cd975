package osim

import (
	"testing"

	"repro/internal/mem/addr"
)

// TestReservationFixesStrictAlternation exercises CA paging's worst
// case: two processes faulting strictly alternately, one huge page at a
// time, into one big free cluster. Best-effort CA leapfrogs (each
// re-placement lands just past the other's frontier); with the §III-D
// reservation extension each VMA's first placement claims its whole
// extent and the footprints stay disjoint.
func TestReservationFixesStrictAlternation(t *testing.T) {
	run := func(policy Placement) (int, int) {
		k := newKernel(t, 64, policy)
		pa, pb := k.NewProcess(0), k.NewProcess(0)
		va, _ := pa.MMap(16 * addr.HugeSize)
		vb, _ := pb.MMap(16 * addr.HugeSize)
		for off := uint64(0); off < va.Size(); off += addr.HugeSize {
			if _, err := pa.Touch(va.Start.Add(off), true); err != nil {
				t.Fatal(err)
			}
			if _, err := pb.Touch(vb.Start.Add(off), true); err != nil {
				t.Fatal(err)
			}
		}
		return len(contiguousRuns(pa)), len(contiguousRuns(pb))
	}
	resA, resB := run(NewCAPolicyWithReservation())
	if resA != 1 || resB != 1 {
		t.Fatalf("reservation runs = %d/%d, want 1/1", resA, resB)
	}
	plainA, _ := run(CAPolicy{})
	if plainA < resA {
		t.Fatalf("plain CA (%d runs) should not beat reservation (%d)", plainA, resA)
	}
}

func TestReservationConflictDetection(t *testing.T) {
	r := NewCAReservation()
	k := newKernel(t, 16, CAPolicy{})
	p := k.NewProcess(0)
	v1, _ := p.MMap(addr.PageSize)
	v2, _ := p.MMap(addr.PageSize)
	r.reserve(ownerOf(p, v1), 1000, 100)
	// Own reservations never conflict.
	if r.conflicts(ownerOf(p, v1), 1000, 100) {
		t.Fatal("self-conflict")
	}
	// Overlap with another owner conflicts, in both directions.
	if !r.conflicts(ownerOf(p, v2), 1050, 10) {
		t.Fatal("interior overlap missed")
	}
	if !r.conflicts(ownerOf(p, v2), 950, 100) {
		t.Fatal("left overlap missed")
	}
	if r.conflicts(ownerOf(p, v2), 1100, 50) {
		t.Fatal("adjacent (non-overlapping) span flagged")
	}
	if r.conflicts(ownerOf(p, v2), 0, 1000) {
		t.Fatal("disjoint span flagged")
	}
}

// TestReservationOutlivesRecycledShell pins that reservations name
// their owner by a never-reused identity, not by *vma.VMA: a span
// reserved by a VMA that is then unmapped still conflicts for the VMA
// that takes over its shell, in the same process and, after an exit,
// in the process that takes over the exited one's shell.
func TestReservationOutlivesRecycledShell(t *testing.T) {
	r := NewCAReservation()
	k := newKernel(t, 16, CAPolicy{})
	p := k.NewProcess(0)
	dead, _ := p.MMap(addr.PageSize)
	r.reserve(ownerOf(p, dead), 1000, 100)
	p.MUnmap(dead)
	heir, _ := p.MMap(addr.PageSize)
	if heir != dead {
		t.Fatal("mmap did not reuse the unmapped VMA's shell")
	}
	if !r.conflicts(ownerOf(p, heir), 1050, 10) {
		t.Fatal("a recycled VMA inherited its dead predecessor's reservation")
	}
	r.reserve(ownerOf(p, heir), 2000, 100)
	p.Exit()
	q := k.NewProcess(0)
	v, _ := q.MMap(addr.PageSize)
	if q != p || v != heir {
		t.Fatal("the new process did not reuse the exited one's shells")
	}
	if !r.conflicts(ownerOf(q, v), 2050, 10) || !r.conflicts(ownerOf(q, v), 1050, 10) {
		t.Fatal("a recycled process's VMA inherited an exited process's reservations")
	}
}

func TestReservationFIFOBound(t *testing.T) {
	r := NewCAReservation()
	k := newKernel(t, 16, CAPolicy{})
	p := k.NewProcess(0)
	owner, _ := p.MMap(addr.PageSize)
	other, _ := p.MMap(addr.PageSize)
	const extra = 6
	for i := 0; i < caReservationCap+extra; i++ {
		r.reserve(ownerOf(p, owner), addr.PFN(i*1000), 100)
	}
	if len(r.spans) != caReservationCap {
		t.Fatalf("spans = %d, want capped at %d", len(r.spans), caReservationCap)
	}
	// The oldest reservations were evicted, in FIFO order.
	if r.conflicts(ownerOf(p, other), addr.PFN((extra-1)*1000), 100) {
		t.Fatal("evicted reservation still conflicts")
	}
	if !r.conflicts(ownerOf(p, other), addr.PFN(extra*1000), 10) {
		t.Fatal("oldest kept reservation lost")
	}
	if !r.conflicts(ownerOf(p, other), addr.PFN((caReservationCap+extra-1)*1000), 10) {
		t.Fatal("latest reservation lost")
	}
}

func TestFiveLevelPageTables(t *testing.T) {
	k := newKernel(t, 16, CAPolicy{})
	k.PageTableLevels = 5
	p := k.NewProcess(0)
	if p.PT.Levels() != 5 {
		t.Fatalf("levels = %d", p.PT.Levels())
	}
	v, _ := p.MMap(2 * addr.HugeSize)
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	// Walks take one extra step at every depth.
	_, level, steps, ok := p.PT.Walk(v.Start)
	if !ok || level != 1 || steps != 4 {
		t.Fatalf("5-level huge walk = (level %d, steps %d, ok %v), want 4 steps", level, steps, ok)
	}
	// Translation correctness is unchanged.
	pa1, _ := p.PT.Translate(v.Start)
	pa2, _ := p.PT.Translate(v.Start.Add(addr.PageSize))
	if pa2 != pa1+addr.PageSize {
		t.Fatal("5-level translation broken")
	}
}
