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
	"slices"
	"sync"

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
// Removing a leaf zeroes its slot and detaching a child nils it, so a
// node whose live count is zero is the zero node and can be recycled
// without clearing.
type node struct {
	children [fanout]*node
	leaves   [fanout]PTE
	huge     [fanout]bool // level HugeLevel: slot is a 2 MiB leaf
	live     int          // populated slots, for reclaim
}

// Pool is a free list of empty page-table nodes. Tables draw every node
// from their pool and return each table that empties, so a churning
// workload reuses the same nodes instead of allocating ~12.5 KiB per
// table. A pool is not safe for concurrent use: every table sharing one
// must be mutated from one goroutine at a time (one kernel's processes,
// which one shard owns). A pool that runs dry draws from the shared
// depot, which Release fills. The zero Pool is empty and ready to use.
type Pool struct {
	free []*node
}

// depot holds zero nodes that outlived their pool: Release moves a
// pool's free list here, and every pool's get takes from here before
// it allocates. Back-to-back kernels (aging campaigns, replay engines,
// experiment grid cells) therefore fill their tables from the nodes
// earlier kernels left, whichever goroutine built them.
var depot struct {
	sync.Mutex
	nodes []*node
}

// Len returns the number of free nodes the pool holds.
func (p *Pool) Len() int { return len(p.free) }

// get hands out a zero node: a freed one of this pool when it has one,
// else one from the depot, else a new one.
func (p *Pool) get() *node {
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free = p.free[:n-1]
		return nd
	}
	depot.Lock()
	if n := len(depot.nodes); n > 0 {
		nd := depot.nodes[n-1]
		depot.nodes[n-1] = nil
		depot.nodes = depot.nodes[:n-1]
		depot.Unlock()
		return nd
	}
	depot.Unlock()
	return &node{}
}

// put takes back an emptied node (live == 0, hence all zero).
func (p *Pool) put(n *node) { p.free = append(p.free, n) }

// Release hands every free node of the pool to the shared depot and
// leaves the pool empty. The pool stays usable: its next get draws
// from the depot.
func (p *Pool) Release() {
	depot.Lock()
	depot.nodes = append(depot.nodes, p.free...)
	depot.Unlock()
	p.free = nil
}

// Observer receives a table's translation-visible mutations — the
// mapping-change events the kernel emits through Map4K/Map2M (demand
// faults, promotion re-mapping, CoW copies), Unmap (teardown, promotion
// tear-down, CoW remaps), and Redirect (migration). Translation
// backends subscribe to keep derived structures (range tables, direct
// segments, hashed mirrors) exactly invalidated. SetContig emits no
// event: it changes walk metadata (the contiguity bit), never where a
// virtual page translates to.
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

// Table is a multi-level (4- or 5-level) page table. Outside a single
// Unmap, a non-root slot holds a child only while that child's subtree
// has a live leaf: UnmapRange and Map2M's reclaim hand every emptied
// table back to the pool, so a table with no leaves is just its root.
type Table struct {
	root *node
	top  int // top level index: 3 for 4-level, 4 for 5-level
	pool *Pool

	obs []Observer // mapping-event subscribers (usually empty)

	mapped4K   uint64 // live 4 KiB leaves
	mapped2M   uint64 // live 2 MiB leaves
	ContigBits uint64 // leaves currently carrying the Contig bit

	// lookups counts Lookup calls — the probe-cost observable the
	// canMapHuge regression test pins (a 512-probe emptiness scan shows
	// up here; a leaf-table presence check does not).
	lookups uint64
}

// New creates an empty 4-level table (PGD..PT) with a private pool.
func New() *Table { return NewWithLevels(4, new(Pool)) }

// NewWithLevels creates a table with the given depth whose nodes come
// from pool: 4 is today's x86-64 layout, 5 the LA57 extension the
// paper's introduction cites as further raising walk costs. Levels
// outside [4,5] panic.
func NewWithLevels(levels int, pool *Pool) *Table {
	t := &Table{pool: pool}
	t.Reset(levels)
	return t
}

// Release returns the root of a table that holds no leaves to the pool
// and reports whether it did; either way the table must not be used
// until Reset. Only a released table that reported true may be Reset:
// a table that still maps something keeps its nodes out of the pool
// (they are not zero), so it is never reused.
func (t *Table) Release() bool {
	empty := t.root.live == 0
	if empty {
		t.pool.put(t.root)
	}
	t.root = nil
	return empty
}

// Scrap returns every node of the table, leaves and all, zeroed to its
// pool, without unmapping anything: no observer hears of it and no
// counter moves. It is for a table whose kernel is being recycled,
// whose frames the machine reset makes pristine anyway. The table must
// not be used until Reset.
func (t *Table) Scrap() {
	t.pool.scrap(t.root)
	t.root = nil
}

// scrap zeroes n and its subtree into the pool.
func (p *Pool) scrap(n *node) {
	for _, c := range n.children {
		if c != nil {
			p.scrap(c)
		}
	}
	*n = node{}
	p.put(n)
}

// Reset makes a released table exactly what NewWithLevels(levels, pool)
// builds from its pool: an empty root, no observers and zero counters.
// Only the observer slice's capacity survives, so a recycled process
// shell's table allocates nothing.
func (t *Table) Reset(levels int) {
	if levels < 4 || levels > 5 {
		panic(fmt.Sprintf("pagetable: unsupported depth %d", levels))
	}
	if t.root != nil {
		panic("pagetable: Reset of a table that was not released")
	}
	clear(t.obs)
	*t = Table{root: t.pool.get(), top: levels - 1, pool: t.pool, obs: t.obs[:0]}
}

// Levels returns the table depth.
func (t *Table) Levels() int { return t.top + 1 }

// Mapped4K returns the number of live 4 KiB leaf entries.
func (t *Table) Mapped4K() uint64 { return t.mapped4K }

// Mapped2M returns the number of live 2 MiB leaf entries.
func (t *Table) Mapped2M() uint64 { return t.mapped2M }

// MappedPages returns total mapped base pages.
func (t *Table) MappedPages() uint64 { return t.mapped4K + t.mapped2M*512 }

func index(v addr.VirtAddr, level int) int {
	return int(uint64(v)>>(addr.PageShift+uint(level)*fanoutBits)) & (fanout - 1)
}

// leafPages returns the extent in base pages of a leaf at level.
func leafPages(level int) uint64 { return 1 << (uint(level) * fanoutBits) }

// find descends v's path to the slot holding its leaf: slot i of node n
// at level (0 for 4 KiB, HugeLevel for 2 MiB). n is nil when v is
// unmapped; level is then the one whose slot was empty. Walk, Lookup
// and Unmap all reach a leaf through find.
func (t *Table) find(v addr.VirtAddr) (n *node, i, level int) {
	n = t.root
	for level = t.top; ; level-- {
		i = index(v, level)
		if level == 0 || (level == HugeLevel && n.huge[i]) {
			if !n.leaves[i].Present() {
				return nil, i, level
			}
			return n, i, level
		}
		if n.children[i] == nil {
			return nil, i, level
		}
		n = n.children[i]
	}
}

// Walk translates v. It returns the leaf entry, the leaf's level (0 for
// 4 KiB, HugeLevel for 2 MiB), and the number of table references the
// walk touched (1 per level descended) — the quantity the hardware walk
// cost model consumes.
func (t *Table) Walk(v addr.VirtAddr) (pte PTE, level int, steps int, ok bool) {
	n, i, level := t.find(v)
	steps = t.top - level + 1 // every level down to the one find stopped at
	if n == nil {
		return PTE{}, 0, steps, false
	}
	return n.leaves[i], level, steps, true
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
			n.children[i] = t.pool.get()
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
	if child := n.children[i]; child != nil && child.live == 0 {
		// Reclaim an emptied PT-level table (e.g. after huge-page
		// promotion unmapped all 512 base entries).
		n.children[i] = nil
		n.live--
		t.pool.put(child)
	}
	if n.huge[i] || n.children[i] != nil {
		panic(fmt.Sprintf("pagetable: Map2M double map at %v", v))
	}
	n.huge[i] = true
	n.leaves[i] = PTE{PFN: pfn, Flags: flags | Present}
	n.live++
	t.mapped2M++
	if flags.Has(Contig) {
		t.ContigBits++
	}
	for _, o := range t.obs {
		o.Mapped(v, 512)
	}
}

// AddObserver subscribes obs to the table's mapping-change events. An
// observer already subscribed (compared with ==, so every observer must
// be comparable) is not added again. The hot translation path is
// unaffected while no observer is registered (the usual case); events
// fire only from mutations.
func (t *Table) AddObserver(obs Observer) {
	if !slices.Contains(t.obs, obs) {
		t.obs = append(t.obs, obs)
	}
}

// RemoveObserver unsubscribes obs (matched by identity). Removing an
// observer that was never added is a no-op.
func (t *Table) RemoveObserver(obs Observer) {
	if i := slices.Index(t.obs, obs); i >= 0 {
		t.obs = slices.Delete(t.obs, i, i+1)
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
	n, i, level := t.find(v)
	if n == nil {
		return nil, 0, false
	}
	return &n.leaves[i], leafPages(level), true
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
// touches of the same PTE would). Like every in-place flag write, it
// fires no observer event. With set == 0 it is a pure presence probe.
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

// UnmappedRun counts the consecutive unmapped base pages starting at v
// (page aligned), up to limit and the end of v's leaf-table span: 0
// when v is mapped, the whole remaining span when no leaf table exists
// there yet. It is the extent fault path's probe, one descent per call.
func (t *Table) UnmappedRun(v addr.VirtAddr, limit uint64) uint64 {
	limit = min(limit, uint64(fanout-index(v, 0)))
	n := t.descend(v, HugeLevel, false)
	if n == nil {
		return limit
	}
	i := index(v, HugeLevel)
	if n.huge[i] {
		return 0
	}
	child := n.children[i]
	if child == nil {
		return limit
	}
	var done uint64
	for s := index(v, 0); done < limit && !child.leaves[s].Present(); s++ {
		done++
	}
	return done
}

// MapRun4K installs n consecutive 4 KiB translations, v → pfn up to
// v+n-1 → pfn+n-1, with one descent: the run must lie inside one leaf
// table span and be unmapped (UnmappedRun reports how far it may go).
// Counters and observers move exactly as n Map4K calls in ascending
// order would.
func (t *Table) MapRun4K(v addr.VirtAddr, pfn addr.PFN, n uint64, flags Flags) {
	first := index(v, 0)
	if !v.PageAligned() || uint64(first)+n > fanout {
		panic(fmt.Sprintf("pagetable: MapRun4K %v+%d leaves its leaf table", v, n))
	}
	nd := t.descend(v, 0, true)
	if nd == nil {
		panic(fmt.Sprintf("pagetable: MapRun4K %v blocked by huge mapping", v))
	}
	leaves := nd.leaves[first : uint64(first)+n]
	for i := range leaves {
		if leaves[i].Present() {
			panic(fmt.Sprintf("pagetable: MapRun4K double map at %v", v.Add(uint64(i)*addr.PageSize)))
		}
		leaves[i] = PTE{PFN: pfn + addr.PFN(i), Flags: flags | Present}
	}
	nd.live += int(n)
	t.mapped4K += n
	if flags.Has(Contig) {
		t.ContigBits += n
	}
	for i := range n {
		for _, o := range t.obs {
			o.Mapped(v.Add(i*addr.PageSize), 1)
		}
	}
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
	} else if !on && had {
		pte.Flags &^= Contig
		t.ContigBits--
	}
	return true
}

// Redirect points the leaf covering v at a new frame, preserving its
// flags and size — page migration. Unlike writing the PFN through
// Lookup's pointer, Redirect fires the observers' Redirected event, so
// derived translation structures never serve the pre-migration frame.
func (t *Table) Redirect(v addr.VirtAddr, pfn addr.PFN) bool {
	pte, pages, ok := t.Lookup(v)
	if !ok {
		return false
	}
	pte.PFN = pfn
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
// returns the entry it held along with its size in base pages. A table
// it empties stays in place: its callers (CoW remaps, promotion) map
// into the same slot right away.
func (t *Table) Unmap(v addr.VirtAddr) (PTE, uint64, bool) {
	n, i, level := t.find(v)
	if n == nil {
		return PTE{}, 0, false
	}
	e := n.leaves[i]
	n.leaves[i] = PTE{}
	n.live--
	base := v.PageDown()
	if level == HugeLevel {
		n.huge[i] = false
		t.mapped2M--
		base = v.HugeDown()
	} else {
		t.mapped4K--
	}
	pages := leafPages(level)
	t.removed(base, e, pages)
	return e, pages, true
}

// UnmapRange removes every leaf overlapping [lo, hi) in ascending VA
// order, descending only into populated subtrees. Each removal fires
// the observers and moves the counters exactly as Unmap does, then
// calls fn with the removed leaf (base VA, the entry it held, its size
// in base pages). Every table the removals empty goes back to the pool;
// the root stays. fn must not mutate the table.
func (t *Table) UnmapRange(lo, hi addr.VirtAddr, fn func(Leaf)) {
	if lo < hi {
		t.unmapRange(t.root, t.top, 0, lo, hi, fn)
	}
}

func (t *Table) unmapRange(n *node, level int, base, lo, hi addr.VirtAddr, fn func(Leaf)) {
	span, first, last := window(level, base, lo, hi)
	for i := first; i <= last && n.live > 0; i++ {
		va := base + addr.VirtAddr(i)*span
		switch {
		case level == HugeLevel && n.huge[i]:
			e := n.leaves[i]
			n.huge[i] = false
			n.leaves[i] = PTE{}
			n.live--
			t.mapped2M--
			t.removed(va, e, 512)
			fn(Leaf{VA: va, PTE: e, Pages: 512})
		case level == 0:
			e := n.leaves[i]
			if !e.Present() {
				continue
			}
			n.leaves[i] = PTE{}
			n.live--
			t.mapped4K--
			t.removed(va, e, 1)
			fn(Leaf{VA: va, PTE: e, Pages: 1})
		case n.children[i] != nil:
			child := n.children[i]
			t.unmapRange(child, level-1, va, lo, hi, fn)
			if child.live == 0 {
				n.children[i] = nil
				n.live--
				t.pool.put(child)
			}
		}
	}
}

// removed accounts for the leaf e, just cleared from its slot at va:
// the contiguity count moves and the observers hear of it.
func (t *Table) removed(va addr.VirtAddr, e PTE, pages uint64) {
	if e.Flags.Has(Contig) {
		t.ContigBits--
	}
	for _, o := range t.obs {
		o.Unmapped(va, pages)
	}
}

// Leaf is one mapped extent reported by Visit.
type Leaf struct {
	VA    addr.VirtAddr
	PTE   PTE
	Pages uint64 // 1 or 512
}

// Visit walks all leaves in ascending virtual-address order.
func (t *Table) Visit(fn func(Leaf)) {
	end := addr.VirtAddr(1) << (addr.PageShift + uint(t.top+1)*fanoutBits)
	t.visitRange(t.root, t.top, 0, 0, end, func(l Leaf) bool { fn(l); return true })
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
	span, first, last := window(level, base, lo, hi)
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

// window returns the VA span of one slot of a node at the given level
// based at base, and the first and last of its slots that overlap
// [lo, hi).
func window(level int, base, lo, hi addr.VirtAddr) (span addr.VirtAddr, first, last int) {
	span = addr.VirtAddr(1) << (addr.PageShift + uint(level)*fanoutBits)
	first, last = 0, fanout-1
	if lo > base {
		first = int((lo - base) / span)
	}
	if end := base + addr.VirtAddr(fanout)*span; hi < end {
		last = int((hi - 1 - base) / span)
	}
	return span, first, last
}
