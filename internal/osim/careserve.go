package osim

import (
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
)

// CAReservation is the optional reservation extension CA paging's
// discussion proposes for severe contention (§III-D): placement
// decisions soft-reserve their chosen region so concurrent placements
// by other VMAs skip it instead of landing inside. Reservations are
// advisory — nothing is allocated up front, so demand paging and memory
// utilisation are unchanged; a bounded FIFO keeps stale entries from
// pinning the placement search forever.
type CAReservation struct {
	mu    sync.Mutex
	spans []caSoftSpan
}

// caReservationCap bounds the tracked reservations.
const caReservationCap = 64

type caSoftSpan struct {
	owner caOwner
	start addr.PFN
	pages uint64
}

// caOwner names the VMA that reserved a span by identities no later
// VMA of the kernel takes: its process's ID (the kernel's sequence)
// and its own ID (the process's sequence). A *vma.VMA would not do: an
// unmapped VMA's shell is recycled, and the VMA that took it over
// would inherit the dead VMA's spans and skip their conflicts.
type caOwner struct{ pid, vid int }

// ownerOf names v, a VMA of p, as a reservation owner.
func ownerOf(p *Process, v *vma.VMA) caOwner { return caOwner{p.ID, v.ID} }

// NewCAReservation creates empty reservation state shared by one
// kernel's CA policy.
func NewCAReservation() *CAReservation { return new(CAReservation) }

// conflicts reports whether [start, start+pages) overlaps a region
// reserved by a different VMA.
func (r *CAReservation) conflicts(owner caOwner, start addr.PFN, pages uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := start + addr.PFN(pages)
	for _, s := range r.spans {
		if s.owner == owner {
			continue
		}
		sEnd := s.start + addr.PFN(s.pages)
		if start < sEnd && s.start < end {
			return true
		}
	}
	return false
}

// reserve records a placement's chosen region.
func (r *CAReservation) reserve(owner caOwner, start addr.PFN, pages uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == caReservationCap {
		r.spans = append(r.spans[:0], r.spans[1:]...)
	}
	r.spans = append(r.spans, caSoftSpan{owner: owner, start: start, pages: pages})
}

// NewCAPolicyWithReservation builds CA paging with the reservation
// extension enabled.
func NewCAPolicyWithReservation() CAPolicy {
	return CAPolicy{Reservation: NewCAReservation()}
}
