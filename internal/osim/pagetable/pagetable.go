// Package pagetable implements a software-walkable 4-level x86-64-style
// page table with 4 KiB and 2 MiB leaf entries. It is used for both
// guest page tables (gVA→gPA) and nested/extended page tables (gPA→hPA).
//
// Each PTE carries a reserved "contiguity" bit (§IV-C of the paper): the
// OS sets it on translations belonging to contiguous mappings of at
// least a threshold size, and the nested page walker only fills SpOT's
// prediction table when the bit is set in both dimensions.
package pagetable

import (
	"fmt"

	"repro/internal/mem/addr"
)

// Flags is a PTE flag set.
type Flags uint8

const (
	// Present marks a valid translation.
	Present Flags = 1 << iota
	// Writable allows stores through the mapping.
	Writable
	// CoW marks a copy-on-write mapping (read-only until write fault).
	CoW
	// Contig is the reserved contiguity bit consumed by SpOT fills.
	Contig
	// Accessed and Dirty mirror the hardware-set bits.
	Accessed
	Dirty
)

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// PTE is a leaf translation entry.
type PTE struct {
	PFN   addr.PFN
	Flags Flags
}

// Present reports whether the entry holds a valid translation.
func (p PTE) Present() bool { return p.Flags.Has(Present) }

const (
	// fanout of each level (9 translated bits per level).
	fanoutBits = 9
	fanout     = 1 << fanoutBits

	// HugeLevel is the level at which 2 MiB leaves live (PMD).
	HugeLevel = 1
)

// node is one 512-entry table. A slot is either a child pointer
// (interior) or a leaf PTE (level 0 always; level 1 when huge).
type node struct {
	children [fanout]*node
	leaves   [fanout]PTE
	huge     [fanout]bool // level HugeLevel: slot is a 2 MiB leaf
	live     int          // populated slots, for reclaim
}

// Observer receives a table's translation-visible mutations — the
// mapping-change events the kernel emits through Map4K/Map2M (demand
// faults, promotion re-mapping, CoW copies), Unmap (teardown, promotion
// tear-down, CoW remaps), and Redirect (migration). Translation
// backends subscribe to keep derived structures (range tables, direct
// segments, hashed mirrors) exactly invalidated; the generation counter
// carries the same signal in aggregate for callers that only need a
// staleness check. SetContig moves the generation but emits no event:
// it changes walk metadata (the contiguity bit), never where a virtual
// page translates to.
//
// Callbacks run synchronously inside the mutation; they must not mutate
// the table.
type Observer interface {
	// Mapped reports a new leaf at va covering pages base pages.
	Mapped(va addr.VirtAddr, pages uint64)
	// Unmapped reports leaf removal: va is the leaf base (4 KiB or
	// 2 MiB aligned), pages its extent.
	Unmapped(va addr.VirtAddr, pages uint64)
	// Redirected reports the leaf at va now points at a different
	// frame (page migration) with unchanged extent.
	Redirected(va addr.VirtAddr, pages uint64)
}

// Table is a multi-level (4- or 5-level) page table.
type Table struct {
	root *node
	top  int // top level index: 3 for 4-level, 4 for 5-level

	obs []Observer // mapping-event subscribers (usually empty)

	mapped4K   uint64 // live 4 KiB leaves
	mapped2M   uint64 // live 2 MiB leaves
	ContigBits uint64 // leaves currently carrying the Contig bit

	// gen counts translation-visible mutations (Map4K/Map2M/Unmap/
	// SetContig). Software memos of walk results (the fault path's
	// last-leaf cache) key their entries to this counter and
	// self-invalidate when it moves.
	gen uint64

	// lookups counts Lookup calls — the probe-cost observable the
	// canMapHuge regression test pins (a 512-probe emptiness scan shows
	// up here; a leaf-table presence check does not).
	lookups uint64
}

// New creates an empty 4-level table (PGD..PT).
func New() *Table { return &Table{root: &node{}, top: 3} }

// NewWithLevels creates a table with the given depth: 4 is today's
// x86-64 layout, 5 the LA57 extension the paper's introduction cites as
// further raising walk costs. Levels outside [4,5] panic.
func NewWithLevels(levels int) *Table {
	if levels < 4 || levels > 5 {
		panic(fmt.Sprintf("pagetable: unsupported depth %d", levels))
	}
	return &Table{root: &node{}, top: levels - 1}
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.top + 1 }

// Generation returns the table's mutation counter. It increases
// monotonically on every Map4K, Map2M, Unmap, and effective SetContig;
// a cached walk result is valid only while the generation it was
// filled under still matches.
func (t *Table) Generation() uint64 { return t.gen }

// Mapped4K returns the number of live 4 KiB leaf entries.
func (t *Table) Mapped4K() uint64 { return t.mapped4K }

// Mapped2M returns the number of live 2 MiB leaf entries.
func (t *Table) Mapped2M() uint64 { return t.mapped2M }

// MappedPages returns total mapped base pages.
func (t *Table) MappedPages() uint64 { return t.mapped4K + t.mapped2M*512 }

func index(v addr.VirtAddr, level int) int {
	return int(uint64(v)>>(addr.PageShift+uint(level)*fanoutBits)) & (fanout - 1)
}

// Walk translates v. It returns the leaf entry, the leaf's level (0 for
// 4 KiB, HugeLevel for 2 MiB), and the number of table references the
// walk touched (1 per level descended) — the quantity the hardware walk
// cost model consumes.
func (t *Table) Walk(v addr.VirtAddr) (pte PTE, level int, steps int, ok bool) {
	n := t.root
	for l := t.top; l >= 0; l-- {
		steps++
		i := index(v, l)
		if l == HugeLevel && n.huge[i] {
			e := n.leaves[i]
			if !e.Present() {
				return PTE{}, 0, steps, false
			}
			return e, HugeLevel, steps, true
		}
		if l == 0 {
			e := n.leaves[i]
			if !e.Present() {
				return PTE{}, 0, steps, false
			}
			return e, 0, steps, true
		}
		if n.children[i] == nil {
			return PTE{}, 0, steps, false
		}
		n = n.children[i]
	}
	panic("unreachable")
}

// Translate resolves a virtual address to a physical address, honouring
// the in-page / in-huge-page offset. ok is false if unmapped.
func (t *Table) Translate(v addr.VirtAddr) (addr.PhysAddr, bool) {
	pte, level, _, ok := t.Walk(v)
	if !ok {
		return 0, false
	}
	if level == HugeLevel {
		return pte.PFN.Addr() + addr.PhysAddr(uint64(v)&addr.HugeMask), true
	}
	return pte.PFN.Addr() + addr.PhysAddr(uint64(v)&addr.PageMask), true
}

// descend finds (creating if create) the node at the given level on v's
// path. Returns nil when a huge leaf blocks the path or a node is
// missing (and !create).
func (t *Table) descend(v addr.VirtAddr, level int, create bool) *node {
	n := t.root
	for l := t.top; l > level; l-- {
		i := index(v, l)
		if l == HugeLevel && n.huge[i] {
			return nil
		}
		if n.children[i] == nil {
			if !create {
				return nil
			}
			n.children[i] = &node{}
			n.live++
		}
		n = n.children[i]
	}
	return n
}

// Map4K installs a 4 KiB translation. v must be page aligned. Mapping
// over an existing entry is a simulator bug and panics.
func (t *Table) Map4K(v addr.VirtAddr, pfn addr.PFN, flags Flags) {
	if !v.PageAligned() {
		panic(fmt.Sprintf("pagetable: Map4K unaligned %v", v))
	}
	n := t.descend(v, 0, true)
	if n == nil {
		panic(fmt.Sprintf("pagetable: Map4K %v blocked by huge mapping", v))
	}
	i := index(v, 0)
	if n.leaves[i].Present() {
		panic(fmt.Sprintf("pagetable: Map4K double map at %v", v))
	}
	n.leaves[i] = PTE{PFN: pfn, Flags: flags | Present}
	n.live++
	t.mapped4K++
	t.gen++
	if flags.Has(Contig) {
		t.ContigBits++
	}
	for _, o := range t.obs {
		o.Mapped(v, 1)
	}
}

// Map2M installs a 2 MiB translation. v and pfn must be 2 MiB aligned.
func (t *Table) Map2M(v addr.VirtAddr, pfn addr.PFN, flags Flags) {
	if !v.HugeAligned() {
		panic(fmt.Sprintf("pagetable: Map2M unaligned %v", v))
	}
	if !pfn.Addr().HugeAligned() {
		panic(fmt.Sprintf("pagetable: Map2M unaligned frame %d", pfn))
	}
	n := t.descend(v, HugeLevel, true)
	if n == nil {
		panic(fmt.Sprintf("pagetable: Map2M %v blocked", v))
	}
	i := index(v, HugeLevel)
	if n.children[i] != nil && n.children[i].live == 0 {
		// Reclaim an emptied PT-level table (e.g. after huge-page
		// promotion unmapped all 512 base entries).
		n.children[i] = nil
		n.live--
	}
	if n.huge[i] || n.children[i] != nil {
		panic(fmt.Sprintf("pagetable: Map2M double map at %v", v))
	}
	n.huge[i] = true
	n.leaves[i] = PTE{PFN: pfn, Flags: flags | Present}
	n.live++
	t.mapped2M++
	t.gen++
	if flags.Has(Contig) {
		t.ContigBits++
	}
	for _, o := range t.obs {
		o.Mapped(v, 512)
	}
}

// AddObserver subscribes obs to the table's mapping-change events. The
// hot translation path is unaffected while no observer is registered
// (the usual case); events fire only from mutations.
func (t *Table) AddObserver(obs Observer) {
	t.obs = append(t.obs, obs)
}

// RemoveObserver unsubscribes obs (matched by identity). Removing an
// observer that was never added is a no-op.
func (t *Table) RemoveObserver(obs Observer) {
	for i, o := range t.obs {
		if o == obs {
			t.obs = append(t.obs[:i], t.obs[i+1:]...)
			return
		}
	}
}

// Lookups returns the number of Lookup calls served over the table's
// lifetime (probe-cost accounting for tests).
func (t *Table) Lookups() uint64 { return t.lookups }

// Lookup returns a pointer to the leaf entry mapping v (4K or 2M) so
// callers can update flags in place (contiguity bit, CoW resolution).
// Returns the leaf size in base pages.
func (t *Table) Lookup(v addr.VirtAddr) (pte *PTE, pages uint64, ok bool) {
	t.lookups++
	n := t.root
	for l := t.top; l >= 0; l-- {
		i := index(v, l)
		if l == HugeLevel && n.huge[i] {
			if !n.leaves[i].Present() {
				return nil, 0, false
			}
			return &n.leaves[i], 512, true
		}
		if l == 0 {
			if !n.leaves[i].Present() {
				return nil, 0, false
			}
			return &n.leaves[i], 1, true
		}
		if n.children[i] == nil {
			return nil, 0, false
		}
		n = n.children[i]
	}
	return nil, 0, false
}

// HugeRegionEmpty reports whether the 2 MiB region containing v has no
// translations at all — no huge leaf and no live 4 KiB leaves. It is
// the THP-eligibility probe: one radix descent to the PMD slot instead
// of 512 per-page lookups. A leaf table's live count is authoritative
// because only present leaves are counted (Map2M always sets Present,
// so a huge slot implies a present mapping).
func (t *Table) HugeRegionEmpty(v addr.VirtAddr) bool {
	n := t.descend(v, HugeLevel, false)
	if n == nil {
		return true
	}
	i := index(v, HugeLevel)
	if n.huge[i] {
		return false
	}
	child := n.children[i]
	return child == nil || child.live == 0
}

// HugeRegionFull4K reports whether every base page of the 2 MiB region
// containing v is mapped by a 4 KiB leaf — the Ingens promotion
// precondition, answered by the leaf table's live count instead of 512
// per-slot probes.
func (t *Table) HugeRegionFull4K(v addr.VirtAddr) bool {
	n := t.descend(v, HugeLevel, false)
	if n == nil {
		return false
	}
	i := index(v, HugeLevel)
	if n.huge[i] {
		return false
	}
	child := n.children[i]
	return child != nil && child.live == fanout
}

// FlagRun ORs set into consecutive present leaves starting at v (page
// aligned) and returns how many base pages it advanced over. The run
// stops at the first non-present slot, the first leaf carrying a flag
// in stop, the end of the current leaf extent's table span, or limit —
// whichever comes first. A huge leaf counts as its whole remaining
// 512-page extent (one flag write covers it, exactly as per-page
// touches of the same PTE would). Flag writes through FlagRun do not
// bump the generation, matching in-place flag updates elsewhere. With
// set == 0 it is a pure presence probe.
//
// This is the steady-state inner loop of the range-fault path: one
// descent per leaf-table span, then a linear walk of the table's slots.
func (t *Table) FlagRun(v addr.VirtAddr, limit uint64, set, stop Flags) uint64 {
	if limit == 0 {
		return 0
	}
	n := t.descend(v, HugeLevel, false)
	if n == nil {
		return 0
	}
	i := index(v, HugeLevel)
	if n.huge[i] {
		e := &n.leaves[i]
		if !e.Present() || e.Flags&stop != 0 {
			return 0
		}
		e.Flags |= set
		span := (addr.HugeSize - (uint64(v) & addr.HugeMask)) / addr.PageSize
		if span > limit {
			span = limit
		}
		return span
	}
	child := n.children[i]
	if child == nil {
		return 0
	}
	var done uint64
	for s := index(v, 0); s < fanout && done < limit; s++ {
		e := &child.leaves[s]
		if !e.Present() || e.Flags&stop != 0 {
			break
		}
		e.Flags |= set
		done++
	}
	return done
}

// SetContig sets or clears the contiguity bit on the leaf mapping v.
func (t *Table) SetContig(v addr.VirtAddr, on bool) bool {
	pte, _, ok := t.Lookup(v)
	if !ok {
		return false
	}
	had := pte.Flags.Has(Contig)
	if on && !had {
		pte.Flags |= Contig
		t.ContigBits++
		t.gen++
	} else if !on && had {
		pte.Flags &^= Contig
		t.ContigBits--
		t.gen++
	}
	return true
}

// Redirect points the leaf covering v at a new frame, preserving its
// flags and size — page migration. Unlike mutating the PTE through
// Lookup's pointer, Redirect bumps the generation, so generation-keyed
// memos never serve the pre-migration frame.
func (t *Table) Redirect(v addr.VirtAddr, pfn addr.PFN) bool {
	pte, pages, ok := t.Lookup(v)
	if !ok {
		return false
	}
	pte.PFN = pfn
	t.gen++
	base := v.PageDown()
	if pages == 512 {
		base = v.HugeDown()
	}
	for _, o := range t.obs {
		o.Redirected(base, pages)
	}
	return true
}

// Unmap removes the leaf translation covering v (whatever its size) and
// returns the entry it held along with its size in base pages.
func (t *Table) Unmap(v addr.VirtAddr) (PTE, uint64, bool) {
	n := t.root
	for l := t.top; l >= 0; l-- {
		i := index(v, l)
		if l == HugeLevel && n.huge[i] {
			e := n.leaves[i]
			if !e.Present() {
				return PTE{}, 0, false
			}
			n.huge[i] = false
			n.leaves[i] = PTE{}
			n.live--
			t.mapped2M--
			t.gen++
			if e.Flags.Has(Contig) {
				t.ContigBits--
			}
			for _, o := range t.obs {
				o.Unmapped(v.HugeDown(), 512)
			}
			return e, 512, true
		}
		if l == 0 {
			e := n.leaves[i]
			if !e.Present() {
				return PTE{}, 0, false
			}
			n.leaves[i] = PTE{}
			n.live--
			t.mapped4K--
			t.gen++
			if e.Flags.Has(Contig) {
				t.ContigBits--
			}
			for _, o := range t.obs {
				o.Unmapped(v.PageDown(), 1)
			}
			return e, 1, true
		}
		if n.children[i] == nil {
			return PTE{}, 0, false
		}
		n = n.children[i]
	}
	return PTE{}, 0, false
}

// Leaf is one mapped extent reported by Visit.
type Leaf struct {
	VA    addr.VirtAddr
	PTE   PTE
	Pages uint64 // 1 or 512
}

// Visit walks all leaves in ascending virtual-address order.
func (t *Table) Visit(fn func(Leaf)) {
	t.visit(t.root, t.top, 0, fn)
}

func (t *Table) visit(n *node, level int, base addr.VirtAddr, fn func(Leaf)) {
	span := addr.VirtAddr(1) << (addr.PageShift + uint(level)*fanoutBits)
	for i := 0; i < fanout; i++ {
		va := base + addr.VirtAddr(i)*span
		switch {
		case level == HugeLevel && n.huge[i]:
			if n.leaves[i].Present() {
				fn(Leaf{VA: va, PTE: n.leaves[i], Pages: 512})
			}
		case level == 0:
			if n.leaves[i].Present() {
				fn(Leaf{VA: va, PTE: n.leaves[i], Pages: 1})
			}
		case n.children[i] != nil:
			t.visit(n.children[i], level-1, va, fn)
		}
	}
}

// VisitRange walks the leaves whose start VA falls in [lo, hi), in
// ascending order, descending only into subtrees that overlap the
// window. fn returning false stops the walk; VisitRange reports whether
// it ran to completion. Unlike the snapshot-then-act pattern, fn may
// mutate the leaf it is handed through structure-preserving operations
// (in-place flag writes, Redirect) — those never add or remove slots,
// so the in-order walk stays well-defined.
func (t *Table) VisitRange(lo, hi addr.VirtAddr, fn func(Leaf) bool) bool {
	if lo >= hi {
		return true
	}
	return t.visitRange(t.root, t.top, 0, lo, hi, fn)
}

func (t *Table) visitRange(n *node, level int, base addr.VirtAddr, lo, hi addr.VirtAddr, fn func(Leaf) bool) bool {
	span := addr.VirtAddr(1) << (addr.PageShift + uint(level)*fanoutBits)
	first, last := 0, fanout-1
	if lo > base {
		first = int((lo - base) / span)
	}
	if end := base + addr.VirtAddr(fanout)*span; hi < end {
		last = int((hi - 1 - base) / span)
	}
	for i := first; i <= last; i++ {
		va := base + addr.VirtAddr(i)*span
		switch {
		case level == HugeLevel && n.huge[i]:
			if va >= lo && n.leaves[i].Present() {
				if !fn(Leaf{VA: va, PTE: n.leaves[i], Pages: 512}) {
					return false
				}
			}
		case level == 0:
			if va >= lo && n.leaves[i].Present() {
				if !fn(Leaf{VA: va, PTE: n.leaves[i], Pages: 1}) {
					return false
				}
			}
		case n.children[i] != nil:
			if !t.visitRange(n.children[i], level-1, va, lo, hi, fn) {
				return false
			}
		}
	}
	return true
}
