// Package ds emulates Direct Segments in dual direct mode (Gandhi et
// al., MICRO'14), the rigid upper-bound baseline of the paper's Fig. 13:
// a single hardware segment [Base, Limit, Offset) translates gVA→hPA
// directly, eliminating the nested walk for every access inside it.
// Accesses outside the segment pay the normal nested 4K walk, and the
// segment's memory is reserved at VM boot — paging is abolished inside
// it, which is exactly the inflexibility CA paging + SpOT avoid.
package ds

import "repro/internal/mem/addr"

// Segment is the single dual-direct segment. A covered va translates
// to Offset.Target(va).
type Segment struct {
	Base   addr.VirtAddr
	Limit  addr.VirtAddr // exclusive
	Offset addr.Offset
}

// NewSegment creates a segment mapping [base, base+bytes) with the
// given translation offset.
func NewSegment(base addr.VirtAddr, bytes uint64, off addr.Offset) *Segment {
	return &Segment{Base: base, Limit: base.Add(bytes), Offset: off}
}

// Covers reports whether va falls inside the segment: the hardware
// range check.
func (s *Segment) Covers(va addr.VirtAddr) bool {
	return va >= s.Base && va < s.Limit
}
