// Package workloads provides synthetic generators reproducing the
// allocation shape and access patterns of the paper's five evaluation
// workloads (Table III) at ~1/512 of their footprints, plus the "hog"
// fragmentation micro-benchmark. Each workload has two phases, like the
// paper's PAPI-delimited runs:
//
//   - Setup: mmap the VMAs, read dataset files through the page cache,
//     and populate memory by touching it (the allocation phase that CA
//     paging steers);
//   - Stream: a deterministic (pc, va, write) access generator for the
//     measured execution phase that the sim engine drives through the
//     TLB and translation hardware.
//
// What matters for fidelity is not the computation but (a) few large
// VMAs, (b) fault order during population, (c) per-PC access locality:
// which instructions touch which mappings how. Those are reproduced per
// workload; see each constructor's comment.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
	"repro/internal/virt"
)

// Daemon is a periodic background activity (Ingens, Ranger, metric
// samplers) polled on the workload's touch path, mirroring how kernel
// daemons interleave with application faults.
type Daemon interface {
	Maybe()
}

// BatchDaemon is a Daemon that can absorb a run of consecutive polls in
// one call. MaybeN(n) must be observably identical to n Maybe calls
// issued back to back with no intervening simulator activity;
// clock-gated daemons exploit that the logical clock cannot move
// between such polls except through their own epochs, touch-counted
// samplers just account n touches and fire at the exact crossings.
type BatchDaemon interface {
	Daemon
	MaybeN(n uint64)
}

// SettleTickNs is the logical time one SettleDaemons epoch advances:
// 5 % over the daemon period, so each epoch fires every clock-gated
// daemon exactly once.
const SettleTickNs = osim.DaemonPeriodNs + osim.DaemonPeriodNs/20

// SettleDaemons advances logical time through the given number of
// daemon epochs, polling every daemon after each SettleTickNs tick.
// Experiment drivers use it for the post-population execution window;
// the aging harness uses it as the between-churn-step daemon schedule.
func SettleDaemons(k *osim.Kernel, ds []Daemon, epochs int) {
	for i := 0; i < epochs; i++ {
		k.Tick(SettleTickNs)
		for _, d := range ds {
			d.Maybe()
		}
	}
}

// maybeN delivers n back-to-back polls, batched when the daemon
// supports it.
func maybeN(d Daemon, n uint64) {
	if b, ok := d.(BatchDaemon); ok {
		b.MaybeN(n)
		return
	}
	for ; n > 0; n-- {
		d.Maybe()
	}
}

// Env abstracts where a workload runs: native (kernel+process) or
// inside a VM (guest process with nested backing).
type Env struct {
	Kernel *osim.Kernel  // the kernel serving the application
	Proc   *osim.Process // the application process
	VM     *virt.VM      // non-nil when virtualized

	// Daemons are polled after every touch; they self-gate on the
	// kernel's logical clock.
	Daemons []Daemon
}

// NewNativeEnv creates a process on the given kernel.
func NewNativeEnv(k *osim.Kernel, homeZone int) *Env {
	return &Env{Kernel: k, Proc: k.NewProcess(homeZone)}
}

// NewVirtEnv creates a guest process inside the VM.
func NewVirtEnv(vm *virt.VM, homeZone int) *Env {
	return &Env{Kernel: vm.Guest, Proc: vm.NewGuestProcess(homeZone), VM: vm}
}

// Tables returns the page tables a translation for the process walks:
// the guest and host tables in a VM (virt.VM.NestedTables), the
// process's own table and a nil host natively. State derived from the
// mappings is valid only while every returned table stands still.
func (e *Env) Tables() (guest, host *pagetable.Table) {
	if e.VM != nil {
		return e.VM.NestedTables(e.Proc)
	}
	return e.Proc.PT, nil
}

// Mappings returns the process's current contiguous mappings: the
// composed 2D (gVA→hPA) extents in a VM, the native page-table extents
// otherwise — the paper's pagemap/VMI measurement.
func (e *Env) Mappings() []metrics.Mapping {
	if e.VM != nil {
		return e.VM.Mappings2D(e.Proc)
	}
	return metrics.FromPageTable(e.Proc.PT)
}

// SetTracer attaches (or, with nil, detaches) an event tracer to the
// environment's whole software stack: the VM (guest and host kernels)
// when virtualized, the native kernel otherwise.
func (e *Env) SetTracer(t *trace.Tracer) {
	if e.VM != nil {
		e.VM.SetTracer(t)
		return
	}
	e.Kernel.SetTracer(t)
}

// TraceSample emits the buddy free-list depth events of every attached
// machine and snapshots a counter row. No-op when no tracer is wired;
// sim.Run calls it once per access batch.
func (e *Env) TraceSample() {
	e.Kernel.Machine.TraceDepths()
	if e.VM != nil {
		e.VM.Host.Machine.TraceDepths()
		e.VM.Host.Tracer.Sample()
		return
	}
	e.Kernel.Tracer.Sample()
}

// Touch accesses va, faulting in one or both dimensions as needed, and
// polls the attached daemons.
func (e *Env) Touch(va addr.VirtAddr, write bool) error {
	var err error
	if e.VM != nil {
		err = e.VM.Touch(e.Proc, va, write)
	} else {
		_, err = e.Proc.Touch(va, write)
	}
	for _, d := range e.Daemons {
		d.Maybe()
	}
	return err
}

// MMap creates an anonymous VMA.
func (e *Env) MMap(bytes uint64) (*vma.VMA, error) { return e.Proc.MMap(bytes) }

// MMapSlack creates an anonymous VMA of used+slack bytes, modelling the
// user-space allocator's rounding (the paper's modified TCMalloc with
// increased maximum allocation): the application will only ever touch
// the first used bytes. The untouched slack is what eager paging turns
// into memory bloat (Table VI).
func (e *Env) MMapSlack(used uint64, slackFrac float64) (*vma.VMA, error) {
	total := used + uint64(slackFrac*float64(used))
	return e.Proc.MMap(total)
}

// Populate touches every page of the VMA sequentially (writes).
func (e *Env) Populate(v *vma.VMA) error { return e.PopulatePrefix(v, v.Size()) }

// PopulatePrefix touches the first bytes of the VMA (writes): the used
// portion of a slack-allocated VMA.
func (e *Env) PopulatePrefix(v *vma.VMA, bytes uint64) error {
	if bytes > v.Size() {
		bytes = v.Size()
	}
	return e.PopulateRange(v, v.Start, bytes)
}

// PopulateRange writes to every page of [start, start+bytes) within v —
// the batched range-fault path. Its observable outcome is byte-
// identical to the historical per-page loop (Touch(start+off, true)
// for every page, polling every daemon after every touch); only the
// execution strategy differs:
//
//   - the containing VMA is resolved once, not once per touch;
//   - runs of already-mapped pages are walked linearly through each
//     resolved leaf table (TouchRangeQuiet) instead of one radix
//     descent per page;
//   - daemon polls over such a run collapse to one MaybeN(n) per run;
//   - every page that needs the fault path still goes through the
//     one-page step with a full per-daemon poll after it, because
//     faults advance the logical clock and a fired daemon may mutate
//     translations that later pages observe;
//   - natively with no daemons, where nothing runs between faults,
//     CA paging's runs of Offset-targeted faults go through the kernel's
//     extent form (osim.Process.FaultRun) instead, and only the pages
//     it declines take the one-page step.
//
// Batching is gated on quiescence: a one-page step that neither faults
// nor moves any kernel clock across its daemon polls proves that every
// clock-gated daemon's gate is closed and, with the clock frozen
// across non-faulting touches, stays closed for the whole quiet run —
// so the collapsed polls are provably the no-ops the per-page loop
// would have executed. (This relies on a simulator-wide invariant:
// any daemon epoch that mutates simulator-visible state advances its
// kernel's clock. Promotion, migration, and fault service all Tick.)
func (e *Env) PopulateRange(v *vma.VMA, start addr.VirtAddr, bytes uint64) error {
	pages := addr.BytesToPages(bytes)
	va := start
	quiescent := false
	extents := e.VM == nil && len(e.Daemons) == 0
	for pages > 0 {
		if quiescent {
			n := e.touchRangeQuiet(v, va, pages)
			if n > 0 {
				for _, d := range e.Daemons {
					maybeN(d, n)
				}
				va = va.Add(n * addr.PageSize)
				pages -= n
				if pages == 0 {
					return nil
				}
			}
		}
		if extents {
			if n := e.Proc.FaultRun(v, va, pages); n > 0 {
				va = va.Add(n * addr.PageSize)
				pages -= n
				quiescent = false
				continue
			}
		}
		q, err := e.touchStep(v, va)
		if err != nil {
			return fmt.Errorf("populate %v at +%d: %w", v, uint64(va-v.Start), err)
		}
		quiescent = q
		va = va.Add(addr.PageSize)
		pages--
	}
	return nil
}

// touchStep performs one per-page touch with its full daemon poll round
// and reports whether the round was quiescent: no fault taken and no
// kernel clock moved across the polls.
func (e *Env) touchStep(v *vma.VMA, va addr.VirtAddr) (bool, error) {
	var faulted bool
	var err error
	if e.VM != nil {
		faulted, err = e.VM.TouchAt(e.Proc, v, va, true)
	} else {
		faulted, err = e.Proc.TouchAt(v, va, true)
	}
	if err != nil {
		return false, err
	}
	before := e.clockSum()
	for _, d := range e.Daemons {
		d.Maybe()
	}
	return !faulted && e.clockSum() == before, nil
}

// touchRangeQuiet advances over present (write-ready) pages in all
// translation dimensions without polling daemons; see PopulateRange.
func (e *Env) touchRangeQuiet(v *vma.VMA, va addr.VirtAddr, maxPages uint64) uint64 {
	if e.VM != nil {
		return e.VM.TouchRangeQuiet(e.Proc, v, va, maxPages, true)
	}
	return e.Proc.TouchRangeQuiet(v, va, maxPages, true)
}

// clockSum totals the logical clocks a daemon fire could advance.
func (e *Env) clockSum() uint64 {
	c := e.Kernel.Clock
	if e.VM != nil {
		c += e.VM.Host.Clock
	}
	return c
}

// Exit tears the process down (the VM's nested backing persists).
func (e *Env) Exit() { e.Proc.Exit() }

// Access is one memory reference of the measured phase.
type Access struct {
	PC    uint64
	VA    addr.VirtAddr
	Write bool
}

// Stream generates the measured phase's access sequence. Fill writes
// up to len(buf) accesses and returns how many it wrote; 0 means the
// stream is exhausted, and a Fill may return fewer than len(buf) before
// the end. The sequence does not depend on the buffer lengths: batching
// is an execution detail, never a semantic one.
//
// A stream is a pure generator of its seed and of the regions Setup
// mapped: it must not read or write simulation state (page tables,
// allocators, the tracer). sim.Run calls Fill from another goroutine,
// up to three blocks of accesses ahead of the machine, so a stream
// that watched the simulation would race with it and see it early.
type Stream interface {
	Fill(buf []Access) int
}

// Batched returns s. Every Stream fills a buffer natively; Batched
// stays only because the perfbench module still calls it.
func Batched(s Stream) Stream { return s }

// Workload is one of the paper's benchmarks.
type Workload interface {
	// Name is the paper's benchmark name.
	Name() string
	// FootprintBytes is the anonymous footprint (excluding files).
	FootprintBytes() uint64
	// Setup allocates and populates memory in env.
	Setup(env *Env, rng *rand.Rand) error
	// Stream returns a deterministic access stream of n references for
	// the measured phase. Setup must have been called on env.
	Stream(rng *rand.Rand, n uint64) Stream
}

// streamLen is the length bookkeeping of the generators' streams: n
// accesses in all, i of them produced so far. Each generator is a
// fill loop over the slice take returns.
type streamLen struct {
	n, i uint64
}

// take clips buf to the accesses the stream has left and counts them
// as produced.
func (s *streamLen) take(buf []Access) []Access {
	if rem := s.n - s.i; uint64(len(buf)) > rem {
		buf = buf[:rem]
	}
	s.i += uint64(len(buf))
	return buf
}

// region is a populated VMA the stream generators index into.
type region struct {
	start addr.VirtAddr
	pages uint64
}

func regionOf(v *vma.VMA) region { return region{start: v.Start, pages: v.Pages()} }

// pageVA returns the VA of the page at index i within the region,
// wrapping i modulo the region's size. Most callers pass an index
// already inside the region, and they skip the 64-bit division.
func (r region) pageVA(i uint64) addr.VirtAddr {
	if i >= r.pages {
		i %= r.pages
	}
	return r.start.Add(i * addr.PageSize)
}

// seqWalker strides through a region page by page, wrapping. pos is
// kept reduced modulo the region's size (callers may jump it forward,
// and pageVA(pos+k) stays congruent), so a sequential stream divides
// only when it wraps.
type seqWalker struct {
	r   region
	pos uint64
}

func (w *seqWalker) next() addr.VirtAddr {
	if w.pos >= w.r.pages {
		w.pos %= w.r.pages
	}
	va := w.r.pageVA(w.pos)
	w.pos++
	return va
}
