package osim

import (
	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
)

// Placement is the physical-placement policy the kernel's fault path
// delegates to. The paper compares four: the default allocator (THP),
// contiguity-aware paging, eager pre-allocation, and offline-ideal
// placement.
type Placement interface {
	// Name identifies the policy in experiment output.
	Name() string

	// OnMMap runs when a VMA is created. Eager pre-allocation backs
	// the whole VMA here; ideal placement computes its offline plan.
	OnMMap(k *Kernel, p *Process, v *vma.VMA) error

	// PlaceAnon returns a frame (block head) of the given order for an
	// anonymous/CoW fault at va. placed reports whether the policy ran
	// a placement decision (charged as extra fault latency).
	PlaceAnon(k *Kernel, p *Process, v *vma.VMA, va addr.VirtAddr, order int) (pfn addr.PFN, placed bool, err error)

	// PlaceFile places 4 KiB frames for page-cache population of file
	// f's pages pageIdx, pageIdx+1, ... into a prefix of out and
	// returns its length: at least one frame unless err is non-nil.
	// placed reports whether the policy ran a placement decision
	// (charged per page as extra latency).
	PlaceFile(k *Kernel, f *File, pageIdx uint64, out []addr.PFN) (n int, placed bool, err error)

	// MarksContiguity reports whether the policy maintains the PTE
	// contiguity bits that gate SpOT prediction-table fills.
	MarksContiguity() bool
}

// DefaultPolicy is the stock Linux-like allocator: first available
// block from the preferred zone's free lists, no placement steering.
type DefaultPolicy struct{}

// Name implements Placement.
func (DefaultPolicy) Name() string { return "default" }

// OnMMap implements Placement (no-op).
func (DefaultPolicy) OnMMap(*Kernel, *Process, *vma.VMA) error { return nil }

// PlaceAnon implements Placement.
func (DefaultPolicy) PlaceAnon(k *Kernel, p *Process, _ *vma.VMA, _ addr.VirtAddr, order int) (addr.PFN, bool, error) {
	pfn, err := k.Machine.AllocBlock(p.HomeZone, order)
	if err != nil {
		return 0, false, ErrOOM
	}
	return pfn, false, nil
}

// PlaceFile implements Placement.
func (DefaultPolicy) PlaceFile(k *Kernel, _ *File, _ uint64, out []addr.PFN) (int, bool, error) {
	return placeFileRun(k, out)
}

// placeFileRun is the PlaceFile of every policy that does not steer
// cache pages: the machine's first free frames, zone 0 first, claimed
// for the whole run with one zone.Machine.AllocN call.
func placeFileRun(k *Kernel, out []addr.PFN) (int, bool, error) {
	n := k.Machine.AllocN(0, out)
	if n == 0 {
		return 0, false, ErrOOM
	}
	return n, false, nil
}

// MarksContiguity implements Placement.
func (DefaultPolicy) MarksContiguity() bool { return false }
