// Package osim is the simulated operating-system memory manager the
// paper extends: demand paging with transparent huge pages over the
// buddy/zone substrate, a page cache with readahead, copy-on-write
// forks, and a pluggable physical-placement policy. The policies — the
// default Linux-like allocator, the paper's contiguity-aware (CA)
// paging, eager pre-allocation, and offline-ideal placement — live in
// this package too, because they are alternative implementations of one
// internal allocation step.
//
// Time is logical: the kernel clock advances by modelled fault/zeroing
// latencies (nanoseconds), giving deterministic Table V percentiles and
// driving the asynchronous daemons (Ingens, Ranger) in package daemon.
package osim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
)

// Latency model constants (nanoseconds of logical time). The shape
// mirrors the paper's Table V: allocation latency is dominated by block
// zeroing, so pre-allocating (and zeroing) a whole VMA at once magnifies
// tail latency by orders of magnitude while demand paging amortises it.
const (
	// FaultBaseNs is the fixed fault-entry overhead.
	FaultBaseNs = 3000
	// ZeroPageNs is the cost of zeroing one 4 KiB page.
	ZeroPageNs = 1000
	// PlacementNs is the contiguity-map search cost CA paging adds on
	// placement decisions (measured tiny in the paper).
	PlacementNs = 500
	// CopyPageNs is the copy cost of one 4 KiB page (CoW, migration).
	CopyPageNs = 800
	// ShootdownNs is the cost of one TLB shootdown (migrations).
	ShootdownNs = 4000
	// DaemonPeriodNs is the epoch of the asynchronous daemons (Ingens,
	// Translation Ranger): an epoch fires once at least this much
	// logical time has passed since the previous one.
	DaemonPeriodNs = 2_000_000
)

// ContigThresholdPages is the run length at which CA paging sets the
// PTE contiguity bit (paper: 32).
const ContigThresholdPages = 32

// ErrSegfault is returned when an access hits no VMA.
var ErrSegfault = errors.New("osim: access outside any VMA")

// ErrOOM is returned when physical memory is exhausted.
var ErrOOM = errors.New("osim: out of memory")

// FaultKind classifies page faults for the stats the paper reports.
type FaultKind int

const (
	// Fault4K is an anonymous 4 KiB demand fault.
	Fault4K FaultKind = iota
	// FaultHuge is an anonymous 2 MiB (THP) demand fault.
	FaultHuge
	// FaultCoW is a copy-on-write fault.
	FaultCoW
	// FaultFile is a page-cache (file-backed) fault.
	FaultFile
	// FaultEager is an eager pre-allocation event (counted as one
	// "fault" per mmap, mirroring the paper's eager fault counts).
	FaultEager
	numFaultKinds
)

func (k FaultKind) String() string {
	switch k {
	case Fault4K:
		return "4k"
	case FaultHuge:
		return "huge"
	case FaultCoW:
		return "cow"
	case FaultFile:
		return "file"
	case FaultEager:
		return "eager"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Stats aggregates kernel events.
type Stats struct {
	Faults [numFaultKinds]uint64
	// FaultLatencies counts fault events by latency: ns -> faults.
	FaultLatencies map[uint64]uint64
	CAFallbacks    uint64 // CA paging target misses that fell back
	CAReplacements uint64 // CA paging re-placement decisions
	CATargetHits   uint64 // CA paging successful targeted allocations
	Migrations     uint64 // pages migrated (Ranger)
	Shootdowns     uint64 // TLB shootdowns issued (Ranger)
	Promotions     uint64 // huge-page promotions (Ingens)
}

// TotalFaults sums all fault kinds.
func (s *Stats) TotalFaults() uint64 {
	var n uint64
	for _, c := range s.Faults {
		n += c
	}
	return n
}

// Process is one simulated process: an address space in some kernel.
type Process struct {
	ID       int
	HomeZone int
	PT       *pagetable.Table
	VMAs     vma.Set
	// RSSPages counts frames charged to the process.
	RSSPages uint64
	kernel   *Kernel
	nextVA   addr.VirtAddr
	vmaSeq   uint64
}

// Kernel bundles the machine, the placement policy, the page cache, and
// global accounting.
type Kernel struct {
	Machine *zone.Machine
	Policy  Placement
	Cache   *PageCache
	Stats   Stats

	// Clock is logical time in nanoseconds.
	Clock uint64

	// THPEnabled controls transparent 2 MiB faults (on by default; the
	// Ingens configuration turns it off and promotes asynchronously).
	THPEnabled bool

	// PageTableLevels is the page-table depth for new processes: 4
	// (default, x86-64) or 5 (LA57 — the deeper walks the paper's
	// introduction cites as a coming cost multiplier).
	PageTableLevels int

	// OffsetBudget overrides the per-VMA tracked-offset budget for VMAs
	// created under this kernel when positive (the offset-budget
	// ablation); 0 keeps vma.MaxOffsets.
	OffsetBudget int

	// Tracer, when non-nil, receives fault, placement, promotion, and
	// migration events. Attach via SetTracer so the machine layers are
	// wired consistently. Nil tracing costs one branch per fault.
	Tracer *trace.Tracer

	// eagerRotor scatters consecutive above-MAX_ORDER eager block
	// selections (see eagerLargestAligned). Per kernel, not global:
	// concurrent kernels must not perturb each other's selections.
	eagerRotor uint64

	// mutSeq counts kernel-visible state mutations: faults, VMA churn,
	// touch-bitmap/flag writes, migrations, forks. Together with the
	// machine's buddy mutation counters it brackets windows in which a
	// daemon's inputs cannot have changed (the fixed-point memo key).
	mutSeq uint64

	// bootBlocks is how many MAX_ORDER blocks BootReserve pinned at
	// each zone base.
	bootBlocks int

	// ptPool recycles page-table nodes across this kernel's processes.
	// A kernel is driven by one goroutine at a time (one shard owns
	// it), so the pool needs no lock; Recycle hands its nodes to the
	// shared depot the next kernel's pool draws from.
	ptPool *pagetable.Pool

	// contigScratch is contigPreds' reused list of walked leaves.
	contigScratch []addr.VirtAddr

	// exitScratch is Process.Exit's reused list of the VMAs to unmap.
	exitScratch []*vma.VMA

	// procFree holds exited process shells, each with its released
	// table, and vmaFree unmapped VMA shells: NewProcess and mmap reuse
	// them (Recycled shells, DESIGN.md §7), so tenant churn stops
	// allocating. They grow only to the peak live count.
	procFree []*Process
	vmaFree  vma.Pool

	// freeStart and freeLen are the pending run of frames to free
	// ([freeStart, freeStart+freeLen)) that MUnmap and DropFile
	// gather; empty between calls.
	freeStart addr.PFN
	freeLen   uint64

	procs  []*Process
	nextID int
}

// NewKernel creates a kernel over the machine with the given policy.
func NewKernel(m *zone.Machine, p Placement) *Kernel {
	k := &Kernel{
		Machine:         m,
		Policy:          p,
		THPEnabled:      true,
		PageTableLevels: 4,
		ptPool:          new(pagetable.Pool),
	}
	k.Cache = newPageCache(k)
	return k
}

// Recycle hands the kernel's warm arenas to the shared depots and its
// machine to the zone pool (zone.Machine.Recycle; a no-op for a view),
// so the next kernel fills its page tables and page cache without
// allocating. Every live process's table goes back to the node pool
// zeroed (pagetable.Table.Scrap), the pool goes to the node depot, and
// every resident file's slot array to the slot depot. No frame is
// freed: the machine's reset makes them pristine. The kernel, its
// processes, its files and its machine must not be used afterwards,
// and Recycle must not be called twice.
func (k *Kernel) Recycle() {
	for _, p := range k.procs {
		p.PT.Scrap()
	}
	k.procs = nil
	k.ptPool.Release()
	k.Cache.recycle()
	k.Machine.Recycle()
}

// Tick advances the logical clock by ns.
func (k *Kernel) Tick(ns uint64) { k.Clock += ns }

// StateSeq returns the kernel's mutation counter. Two equal readings
// (combined with equal Machine buddy mutation counts) bracket a window
// in which no process state a daemon reads can have changed. Daemon
// promotions do not advance it: a promotion's buddy alloc and free
// change Machine.Mutations, which invalidates the daemons'
// fixed-point memo on its own.
func (k *Kernel) StateSeq() uint64 { return k.mutSeq }

// SetTracer attaches (or, with nil, detaches) an event tracer to the
// kernel and its machine (buddy allocators, depth gauges).
func (k *Kernel) SetTracer(t *trace.Tracer) {
	k.Tracer = t
	k.Machine.SetTracer(t)
}

// BootReserve pins the first blocks MAX_ORDER blocks of every zone,
// modelling the kernel image, memmap, and firmware reservations that
// occupy the start of each node on a real machine. Without this, two
// pristine adjacent zones form one seamless physical run and workloads
// cross NUMA boundaries "for free" — masking the boundary effects the
// paper observes for hashjoin and BT. Call right after NewKernel.
// The kernel records the count (BootBlocks), so audits account for
// the reservation without being told.
func (k *Kernel) BootReserve(blocks int) {
	k.bootBlocks = blocks
	for _, z := range k.Machine.Zones {
		for b := 0; b < blocks; b++ {
			if err := z.Buddy.Reserve(z.Base+addr.PFN(b*addr.MaxOrderPages), addr.MaxOrderPages); err != nil {
				panic(fmt.Sprintf("osim: boot reserve failed on zone %d: %v", z.ID, err))
			}
		}
	}
}

// BootBlocks reports how many MAX_ORDER blocks BootReserve pinned at
// the base of each zone of k.Machine; 0 when it was never called, as
// for kernels over zone views, whose parent made the reservation.
func (k *Kernel) BootBlocks() int { return k.bootBlocks }

// NewProcess creates a process homed on the given zone. homeZone must
// name an existing zone: the zonelist would silently clamp an
// out-of-range preference to zone 0 on every later allocation, hiding
// the caller's bug, so the constructor rejects it up front.
//
// It reuses an exited process's shell when the kernel holds one: the
// Process struct, its table (Reset to PageTableLevels, observers and
// counters cleared) and its VMA set's backing array. Every other field
// is set as for a fresh process, and IDs continue one sequence.
func (k *Kernel) NewProcess(homeZone int) *Process {
	if homeZone < 0 || homeZone >= len(k.Machine.Zones) {
		panic(fmt.Sprintf("osim: NewProcess home zone %d out of range [0,%d)",
			homeZone, len(k.Machine.Zones)))
	}
	k.nextID++
	var p *Process
	if n := len(k.procFree); n > 0 {
		p = k.procFree[n-1]
		k.procFree[n-1] = nil
		k.procFree = k.procFree[:n-1]
		p.PT.Reset(k.PageTableLevels)
		p.VMAs.Reset()
	} else {
		p = &Process{PT: pagetable.NewWithLevels(k.PageTableLevels, k.ptPool)}
	}
	*p = Process{
		ID:       k.nextID,
		HomeZone: homeZone,
		PT:       p.PT,
		VMAs:     p.VMAs,
		kernel:   k,
		nextVA:   0x10_0000_0000, // 64 GiB: clear of null/low mappings
	}
	k.procs = append(k.procs, p)
	return p
}

// Processes returns the live processes.
func (k *Kernel) Processes() []*Process { return k.procs }

// MMap creates an anonymous VMA of size bytes (page-rounded) at a
// kernel-chosen address and runs the policy's placement hook.
func (p *Process) MMap(size uint64) (*vma.VMA, error) {
	return p.mmap(size, vma.Anonymous, 0, 0)
}

// MMapFile maps size bytes of the file starting at byte offset off.
func (p *Process) MMapFile(f *File, off, size uint64) (*vma.VMA, error) {
	return p.mmap(size, vma.FileBacked, f.ID, off)
}

func (p *Process) mmap(size uint64, kind vma.Kind, fileID int, fileOff uint64) (*vma.VMA, error) {
	p.kernel.mutSeq++
	size = addr.BytesToPages(size) * addr.PageSize
	start := p.nextVA
	// Leave an unmapped guard gap of deterministic but irregular size
	// (mmap layout jitter): regular spacing would make distinct VMAs
	// share translation offsets by accident, which real address-space
	// layouts do not.
	p.vmaSeq++
	jitter := (p.vmaSeq * 2654435761) % 8
	p.nextVA = start.Add(size).HugeUp() + addr.VirtAddr((1+jitter)*addr.HugeSize)
	v, err := p.VMAs.Insert(&p.kernel.vmaFree, start, size, kind)
	if err != nil {
		return nil, err
	}
	v.FileID = fileID
	v.FileOff = fileOff
	v.Budget = p.kernel.OffsetBudget
	if err := p.kernel.Policy.OnMMap(p.kernel, p, v); err != nil {
		// The hook may have backed part of the VMA before failing
		// (eager paging running out of memory mid-loop); MUnmap tears
		// down any partial backing before dropping the VMA, so no
		// orphaned translations or RSS survive a failed mmap.
		p.MUnmap(v)
		return nil, err
	}
	return v, nil
}

// MUnmap tears down a VMA, releasing every frame its unmapping leaves
// unreferenced. Page-cache frames stay in the cache (they outlive
// processes, §III-C), which holds a reference of its own, so a
// file-backed frame is freed here only when the cache dropped it while
// it was mapped. Its 4 KiB frames go back through freeLater, its huge
// frames one block each.
// The VMA's shell goes to the kernel's free list for a later mmap or
// fork to reuse, so the caller must not use v after the next mmap or
// fork in this kernel.
func (p *Process) MUnmap(v *vma.VMA) {
	k := p.kernel
	k.mutSeq++
	p.PT.UnmapRange(v.Start, v.End, func(l pagetable.Leaf) {
		f := k.Machine.Frames.Get(l.PTE.PFN)
		f.MapCount--
		p.RSSPages -= l.Pages
		if f.MapCount > 0 {
			return
		}
		if l.Pages == 1 {
			k.freeLater(l.PTE.PFN)
			return
		}
		k.flushFree()
		k.Machine.FreeBlock(l.PTE.PFN, addr.LeafOrder(l.Pages))
	})
	k.flushFree()
	v.MappedPages = 0
	if p.VMAs.Remove(v) {
		k.vmaFree.Put(v)
	}
}

// freeLater frees the 4 KiB frame pfn. Frames go back by run: a frame
// that extends the pending run joins it, any other flushes the run
// first and starts a new one, and the caller ends with flushFree. Each
// run is freed as its aligned blocks in ascending order
// (zone.Machine.FreeRange), which ends in the same free lists and
// frames as freeing the run page by page: inside an aligned block the
// still-allocated upper pages stop every merge until the block's last
// page. A trace therefore shows only the merges FreeRange performs.
func (k *Kernel) freeLater(pfn addr.PFN) {
	switch {
	case k.freeLen > 0 && pfn == k.freeStart+addr.PFN(k.freeLen):
		k.freeLen++
	default:
		k.flushFree()
		k.freeStart, k.freeLen = pfn, 1
	}
}

// flushFree frees the pending run, if any.
func (k *Kernel) flushFree() {
	if k.freeLen > 0 {
		k.Machine.FreeRange(k.freeStart, k.freeLen)
		k.freeLen = 0
	}
}

// Exit tears down every VMA of the process (MUnmap, so their shells go
// to the kernel's free list) and releases its page table. When the
// table held no leaf outside a VMA, its root goes back to the node pool
// and the process shell, table included, to the kernel's free list for
// NewProcess to reuse; a table that still maps something is dropped
// with its process (pagetable.Table.Release). The process must not be
// used again. Exiting a process that is not live (a second Exit)
// panics, so no shell is ever pushed twice.
func (p *Process) Exit() {
	k := p.kernel
	i := slices.Index(k.procs, p)
	if i < 0 {
		panic(fmt.Sprintf("osim: Exit of process %d, which is not live", p.ID))
	}
	k.mutSeq++
	all := k.exitScratch[:0]
	p.VMAs.Visit(func(v *vma.VMA) { all = append(all, v) })
	for _, v := range all {
		p.MUnmap(v)
	}
	clear(all) // hold no dead VMA
	k.exitScratch = all[:0]
	k.procs = slices.Delete(k.procs, i, i+1)
	if p.PT.Release() {
		k.procFree = append(k.procFree, p)
	}
}

// faultEvent maps fault kinds to their trace event kinds.
var faultEvent = [numFaultKinds]trace.Kind{
	Fault4K:    trace.EvFault4K,
	FaultHuge:  trace.EvFaultHuge,
	FaultCoW:   trace.EvFaultCoW,
	FaultFile:  trace.EvFaultFile,
	FaultEager: trace.EvFaultEager,
}

// recordFault charges a fault of the given kind and latency at va.
func (k *Kernel) recordFault(kind FaultKind, va addr.VirtAddr, latNs uint64) {
	k.recordFaults(kind, 1, latNs)
	if k.Tracer != nil {
		k.Tracer.Emit(faultEvent[kind], uint64(va), latNs, k.Clock)
	}
}

// recordFaults charges n faults of one kind and latency: the counters,
// the latency count and the clock move as n untraced recordFault calls
// would move them.
func (k *Kernel) recordFaults(kind FaultKind, n, latNs uint64) {
	k.mutSeq += n
	k.Stats.Faults[kind] += n
	if k.Stats.FaultLatencies == nil {
		k.Stats.FaultLatencies = make(map[uint64]uint64)
	}
	k.Stats.FaultLatencies[latNs] += n
	k.Tick(n * latNs)
}

// mapRange installs translations for a physically contiguous run
// [pfnStart, +pages) at [vaStart, +pages*4K), choosing 2 MiB leaves
// wherever virtual and physical alignment both allow. It updates frame
// map counts and the process RSS. Used by eager pre-allocation, CoW of
// huge mappings, and migration.
func (k *Kernel) mapRange(p *Process, v *vma.VMA, vaStart addr.VirtAddr, pfnStart addr.PFN, pages uint64, flags pagetable.Flags) {
	va, pfn, left := vaStart, pfnStart, pages
	for left > 0 {
		if left >= addr.HugePages && va.HugeAligned() && pfn.Addr().HugeAligned() {
			p.PT.Map2M(va, pfn, flags)
			k.Machine.Frames.Get(pfn).MapCount++
			va, pfn, left = va.Add(addr.HugeSize), pfn+addr.HugePages, left-addr.HugePages
			p.RSSPages += addr.HugePages
			v.MappedPages += addr.HugePages
		} else {
			p.PT.Map4K(va, pfn, flags)
			k.Machine.Frames.Get(pfn).MapCount++
			va, pfn, left = va.Add(addr.PageSize), pfn+1, left-1
			p.RSSPages++
			v.MappedPages++
		}
	}
}
