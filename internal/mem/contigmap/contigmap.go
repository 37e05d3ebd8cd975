// Package contigmap implements the paper's contiguity_map (§III-B,
// Fig. 3): an index on top of the buddy allocator's MAX_ORDER free list
// that records *unaligned* free contiguity at scales larger than the
// buddy heap tracks. Each entry (cluster) is a variable-length run of
// physically consecutive free MAX_ORDER blocks, stored on an
// address-sorted doubly-linked list.
//
// Updates are O(1)-ish and triggered by buddy-list insertions/deletions:
// every free MAX_ORDER block's head frame carries a back-pointer to its
// cluster (re-purposing the frame's Cluster field, as Linux re-purposes
// page->mapping), so no search is needed on the update path.
//
// CA paging's placement decisions run next-fit over the map through an
// address-granular rover: each placement resumes the search where the
// previous one left off and advances past the full requested extent, so
// racing placements (a second VMA, the page cache) are deferred past
// each other's planned regions instead of colliding inside them
// (§III-C).
package contigmap

import (
	"fmt"

	"repro/internal/mem/addr"
	"repro/internal/mem/buddy"
	"repro/internal/mem/frame"
)

// Cluster is a maximal run of free MAX_ORDER blocks.
type Cluster struct {
	id     uint32
	Start  addr.PFN // first frame of the run
	Blocks uint64   // number of MAX_ORDER blocks

	prev, next *Cluster // address-sorted list links
}

// Pages returns the cluster length in base pages.
func (c *Cluster) Pages() uint64 { return c.Blocks * addr.MaxOrderPages }

// End returns one past the last frame of the run.
func (c *Cluster) End() addr.PFN { return c.Start + addr.PFN(c.Pages()) }

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{%d: [%d,%d) %d blocks}", c.id, c.Start, c.End(), c.Blocks)
}

// Map is one contiguity map instance. The paper (and this simulator)
// keeps one per NUMA node, mirroring the per-zone buddy instance.
type Map struct {
	frames    *frame.Table
	b         *buddy.Buddy // the zone's allocator; bounds neighbour probes
	byID      map[uint32]*Cluster
	head      *Cluster // lowest-address cluster
	nextID    uint32
	roverAddr addr.PFN // next-fit resume address
	firstFit  bool     // ablation: restart the search at 0 each time
}

// New builds a map over the given buddy allocator, scanning its current
// MAX_ORDER list and subscribing to future membership changes. New must
// be the only hook subscriber for that allocator.
func New(frames *frame.Table, b *buddy.Buddy) *Map {
	m := &Map{
		frames: frames,
		b:      b,
		byID:   make(map[uint32]*Cluster),
		nextID: 1,
	}
	b.SetHooks(buddy.Hooks{
		MaxOrderInsert: m.onInsert,
		MaxOrderRemove: m.onRemove,
	})
	b.VisitMaxOrder(m.onInsert)
	return m
}

// Len returns the number of clusters.
func (m *Map) Len() int { return len(m.byID) }

// Visit walks clusters in ascending address order.
func (m *Map) Visit(fn func(c *Cluster)) {
	for c := m.head; c != nil; c = c.next {
		fn(c)
	}
}

// VisitRanges walks clusters in ascending address order as plain
// (start, pages) pairs — a structural view for consumers that do not
// need cluster identity (eager paging's aligned-run scan, ideal
// placement's snapshot).
func (m *Map) VisitRanges(fn func(start addr.PFN, pages uint64)) {
	for c := m.head; c != nil; c = c.next {
		fn(c.Start, c.Pages())
	}
}

// Largest returns the size in pages of the largest cluster (0 if empty).
func (m *Map) Largest() uint64 {
	var max uint64
	for c := m.head; c != nil; c = c.next {
		if c.Pages() > max {
			max = c.Pages()
		}
	}
	return max
}

// TotalPages returns the total free pages tracked by the map. This is a
// lower bound on free memory: sub-MAX_ORDER free blocks are not tracked.
func (m *Map) TotalPages() uint64 {
	var n uint64
	for c := m.head; c != nil; c = c.next {
		n += c.Pages()
	}
	return n
}

// SetFirstFit switches FindFit to first-fit (the search restarts from
// the lowest address every time). Next-fit is the paper's choice; the
// first-fit mode exists for the ablation study of racing placements.
func (m *Map) SetFirstFit(on bool) { m.firstFit = on }

// FindFit runs the next-fit placement policy with an address-granular
// rover: the search resumes from where the previous placement left off
// — *inside* a cluster when the previous request consumed only part of
// it — wraps once around the address-sorted list, and returns the first
// free region of at least pages base pages. If nothing is large enough,
// the largest region found is returned (the paper's fallback). ok is
// false only when the map is empty.
//
// Advancing the rover past the full requested size (not just the pages
// allocated so far) is what defers racing between placements: a second
// VMA or the page cache placing while a first VMA is still demand-
// faulting is directed past the first one's planned extent instead of
// into it.
func (m *Map) FindFit(pages uint64) (start addr.PFN, available uint64, ok bool) {
	if m.head == nil {
		return 0, 0, false
	}
	if m.firstFit {
		m.roverAddr = 0
	}
	// Locate the first cluster ending beyond the rover address.
	first := m.head
	for c := m.head; c != nil; c = c.next {
		if c.End() > m.roverAddr {
			first = c
			break
		}
	}
	var largestStart addr.PFN
	var largestAvail uint64
	// Visit every cluster once, plus the first again in full: the
	// initial visit may have been truncated by the rover.
	c := first
	for i := 0; i <= len(m.byID); i++ {
		effStart, effAvail := c.Start, c.Pages()
		if i == 0 && c.Start < m.roverAddr && m.roverAddr < c.End() {
			effStart = m.roverAddr
			effAvail = uint64(c.End() - m.roverAddr)
		}
		// Placements anchor Offsets that must serve 2 MiB faults, so
		// they start on huge-page boundaries.
		if aligned := addr.PFN((uint64(effStart) + 511) &^ 511); aligned != effStart {
			shift := uint64(aligned - effStart)
			if shift >= effAvail {
				effAvail = 0
			} else {
				effAvail -= shift
			}
			effStart = aligned
		}
		if effAvail >= pages {
			m.advanceRover(effStart, pages, c.End())
			return effStart, effAvail, true
		}
		if effAvail > largestAvail {
			largestStart, largestAvail = effStart, effAvail
		}
		c = c.next
		if c == nil {
			c = m.head // wrap
		}
	}
	m.advanceRover(largestStart, largestAvail, largestStart+addr.PFN(largestAvail))
	return largestStart, largestAvail, true
}

// advanceRover moves the rover past the selected region's requested
// extent, clamped to the containing cluster's end.
func (m *Map) advanceRover(start addr.PFN, pages uint64, clusterEnd addr.PFN) {
	next := start + addr.PFN(pages)
	if next > clusterEnd {
		next = clusterEnd
	}
	m.roverAddr = next
}

// --- buddy hook handlers ---

// clusterOfBlock returns the cluster owning the free MAX_ORDER block at
// head, if any, via the frame back-pointer. Blocks outside the zone are
// never ours: the frame table is machine-wide, and a neighbouring
// zone's records may be mutated concurrently by its own shard.
func (m *Map) clusterOfBlock(head addr.PFN) *Cluster {
	if !m.b.Contains(head) {
		return nil
	}
	id := m.frames.Get(head).Cluster
	if id == 0 {
		return nil
	}
	return m.byID[id]
}

func (m *Map) onInsert(pfn addr.PFN) {
	left := m.clusterOfBlock(pfn - addr.MaxOrderPages)
	// A left cluster only absorbs us if it ends exactly at us.
	if left != nil && left.End() != pfn {
		left = nil
	}
	right := m.clusterOfBlock(pfn + addr.MaxOrderPages)
	if right != nil && right.Start != pfn+addr.MaxOrderPages {
		right = nil
	}
	switch {
	case left != nil && right != nil:
		// Bridge: extend left over us and absorb right.
		left.Blocks++
		m.setOwner(pfn, left.id)
		m.absorb(left, right)
	case left != nil:
		left.Blocks++
		m.setOwner(pfn, left.id)
	case right != nil:
		right.Start = pfn
		right.Blocks++
		m.setOwner(pfn, right.id)
	default:
		c := &Cluster{id: m.nextID, Start: pfn, Blocks: 1}
		m.nextID++
		m.byID[c.id] = c
		m.linkSorted(c)
		m.setOwner(pfn, c.id)
	}
}

func (m *Map) onRemove(pfn addr.PFN) {
	c := m.clusterOfBlock(pfn)
	if c == nil {
		panic(fmt.Sprintf("contigmap: removing block %d with no cluster", pfn))
	}
	m.frames.Get(pfn).Cluster = 0
	switch {
	case c.Blocks == 1:
		m.unlink(c)
	case pfn == c.Start:
		c.Start += addr.MaxOrderPages
		c.Blocks--
	case pfn == c.End()-addr.MaxOrderPages:
		c.Blocks--
	default:
		// Split: c keeps the left part; a new cluster takes the right.
		rightStart := pfn + addr.MaxOrderPages
		rightBlocks := (uint64(c.End()-rightStart) / addr.MaxOrderPages)
		c.Blocks = uint64(pfn-c.Start) / addr.MaxOrderPages
		r := &Cluster{id: m.nextID, Start: rightStart, Blocks: rightBlocks}
		m.nextID++
		m.byID[r.id] = r
		// Insert r immediately after c (address order preserved).
		r.prev, r.next = c, c.next
		if c.next != nil {
			c.next.prev = r
		}
		c.next = r
		m.retag(r)
	}
}

// absorb merges right into left (left.End() == right.Start).
func (m *Map) absorb(left, right *Cluster) {
	left.Blocks += right.Blocks
	m.unlink(right)
	m.retag(left)
}

// retag repoints every block head of the cluster at its (new) owner.
func (m *Map) retag(c *Cluster) {
	for p := c.Start; p < c.End(); p += addr.MaxOrderPages {
		m.frames.Get(p).Cluster = c.id
	}
}

func (m *Map) setOwner(pfn addr.PFN, id uint32) { m.frames.Get(pfn).Cluster = id }

func (m *Map) linkSorted(c *Cluster) {
	if m.head == nil || c.Start < m.head.Start {
		c.next = m.head
		if m.head != nil {
			m.head.prev = c
		}
		m.head = c
		return
	}
	cur := m.head
	for cur.next != nil && cur.next.Start < c.Start {
		cur = cur.next
	}
	c.prev, c.next = cur, cur.next
	if cur.next != nil {
		cur.next.prev = c
	}
	cur.next = c
}

func (m *Map) unlink(c *Cluster) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		m.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	delete(m.byID, c.id)
}

// CheckInvariants validates map/buddy/frame consistency; test support.
// It allocates its own membership scratch; the audit engine calls
// CheckInvariantsScratch with a reused arena instead.
func (m *Map) CheckInvariants(b *buddy.Buddy) error {
	return m.CheckInvariantsScratch(b, make([]uint64, scratchWords(b)))
}

// scratchWords is the borrowed-bitset length CheckInvariantsScratch
// needs: one bit per MAX_ORDER block of the allocator's managed range.
func scratchWords(b *buddy.Buddy) int {
	return int((b.Pages()/addr.MaxOrderPages + 63) / 64)
}

// CheckInvariantsScratch is CheckInvariants over a borrowed membership
// bitset (one bit per MAX_ORDER block of b's range; buddy.ScratchWords
// words are always enough). The scratch is cleared word-at-a-time on
// entry; its contents on return are unspecified.
func (m *Map) CheckInvariantsScratch(b *buddy.Buddy, scratch []uint64) error {
	// Collect buddy MAX_ORDER membership, one bit per block index.
	onList := scratch[:scratchWords(b)]
	clear(onList)
	base := b.Base()
	var listed uint64
	b.VisitMaxOrder(func(p addr.PFN) {
		i := uint64(p-base) / addr.MaxOrderPages
		onList[i>>6] |= 1 << (i & 63)
		listed++
	})
	var mapped uint64
	prevEnd := addr.PFN(0)
	first := true
	for c := m.head; c != nil; c = c.next {
		if c.Blocks == 0 {
			return fmt.Errorf("empty cluster %v", c)
		}
		if !first && c.Start < prevEnd {
			return fmt.Errorf("cluster %v overlaps or unsorted (prev end %d)", c, prevEnd)
		}
		if !first && c.Start == prevEnd {
			return fmt.Errorf("cluster %v adjacent to previous; should have merged", c)
		}
		for p := c.Start; p < c.End(); p += addr.MaxOrderPages {
			if i := uint64(p-base) / addr.MaxOrderPages; p < base || !b.Contains(p) || onList[i>>6]&(1<<(i&63)) == 0 {
				return fmt.Errorf("cluster %v contains block %d not on MAX_ORDER list", c, p)
			}
			if m.frames.Get(p).Cluster != c.id {
				return fmt.Errorf("block %d back-pointer %d != cluster %d", p, m.frames.Get(p).Cluster, c.id)
			}
			mapped++
		}
		prevEnd = c.End()
		first = false
	}
	if mapped != listed {
		return fmt.Errorf("map covers %d blocks, buddy list has %d", mapped, listed)
	}
	// The byID index must agree with the address-sorted list exactly:
	// a cluster reachable by ID but not linked (or vice versa) means a
	// split/merge left the two views diverged.
	linked := 0
	for c := m.head; c != nil; c = c.next {
		if m.byID[c.id] != c {
			return fmt.Errorf("cluster %v not indexed under its id", c)
		}
		linked++
	}
	if linked != len(m.byID) {
		return fmt.Errorf("list has %d clusters, byID has %d", linked, len(m.byID))
	}
	return nil
}
