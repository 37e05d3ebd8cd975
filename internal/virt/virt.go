// Package virt builds the virtualization substrate: a hypervisor whose
// VMs run a full guest memory manager (package osim) over a guest
// physical address space that the host memory manager backs on demand
// through nested (EPT-style) faults.
//
// The two translation dimensions of nested paging map onto two complete
// osim kernels:
//
//   - 1st dimension (gVA→gPA): the guest kernel, with its own buddy
//     allocator, contiguity map, and placement policy, installs guest
//     page tables for guest processes.
//   - 2nd dimension (gPA→hPA): each VM is one host process whose single
//     anonymous VMA spans the guest physical space; a guest access to a
//     gPA not yet backed triggers a host fault there (the nested/EPT
//     fault), served by the host kernel's placement policy.
//
// Running CA paging in each kernel independently is exactly the paper's
// deployment model (§III-C "Virtualized execution"); this package also
// provides the VMI-style introspection that composes the two page
// tables into full 2D (gVA→hPA) mappings for the contiguity metrics
// and for hardware emulation.
package virt

import (
	"fmt"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
)

// VM is one virtual machine: a guest kernel plus its host backing.
type VM struct {
	// Host is the hypervisor-side kernel backing this VM.
	Host *osim.Kernel
	// HostProc is the host process representing the VM (QEMU-like).
	HostProc *osim.Process
	// Guest is the guest OS kernel managing guest physical memory.
	Guest *osim.Kernel

	baseVA   addr.VirtAddr // host VA of guest physical address 0
	hostVMA  *vma.VMA      // the single backing VMA spanning guest memory
	memPages uint64
	tr       *trace.Tracer
}

// SetTracer attaches (or, with nil, detaches) an event tracer to the
// whole VM: the guest kernel, the host kernel backing it, and the
// VM's own nested-fault instrumentation all report to the same tracer.
func (vm *VM) SetTracer(t *trace.Tracer) {
	vm.tr = t
	vm.Guest.SetTracer(t)
	vm.Host.SetTracer(t)
}

// Config describes a VM.
type Config struct {
	// MemBytes is the guest physical memory size.
	MemBytes uint64
	// GuestZones optionally splits guest memory into NUMA zones (page
	// counts); when nil, one zone spans all guest memory.
	GuestZones []uint64
	// GuestPolicy is the guest kernel's placement policy.
	GuestPolicy osim.Placement
	// GuestSorted enables the sorted MAX_ORDER list in the guest buddy.
	GuestSorted bool
	// GuestBootReserve pins this many MAX_ORDER blocks at the start of
	// each guest zone (guest kernel image / reserved regions).
	GuestBootReserve int
}

// New creates a VM on the given host kernel. Guest memory is rounded to
// MAX_ORDER blocks.
func New(host *osim.Kernel, cfg Config) (*VM, error) {
	pages := addr.BytesToPages(cfg.MemBytes)
	pages = (pages + addr.MaxOrderPages - 1) &^ uint64(addr.MaxOrderPages-1)
	zones := cfg.GuestZones
	if zones == nil {
		zones = []uint64{pages}
	} else {
		var sum uint64
		for _, z := range zones {
			sum += z
		}
		if sum != pages {
			return nil, fmt.Errorf("virt: guest zones sum %d != guest pages %d", sum, pages)
		}
	}
	policy := cfg.GuestPolicy
	if policy == nil {
		policy = osim.DefaultPolicy{}
	}
	guestMachine := zone.NewMachine(zone.Config{ZonePages: zones, SortedMaxOrder: cfg.GuestSorted})
	guest := osim.NewKernel(guestMachine, policy)
	if cfg.GuestBootReserve > 0 {
		guest.BootReserve(cfg.GuestBootReserve)
	}

	hostProc := host.NewProcess(0)
	hostVMA, err := hostProc.MMap(pages * addr.PageSize)
	if err != nil {
		return nil, fmt.Errorf("virt: backing VMA: %w", err)
	}
	return &VM{
		Host:     host,
		HostProc: hostProc,
		Guest:    guest,
		baseVA:   hostVMA.Start,
		hostVMA:  hostVMA,
		memPages: pages,
	}, nil
}

// MemPages returns the guest physical memory size in pages.
func (vm *VM) MemPages() uint64 { return vm.memPages }

// HostVMA returns the single host VMA backing guest physical memory.
// Auditors use it to tie guest-side frame ownership to the host-side
// mapping state.
func (vm *VM) HostVMA() *vma.VMA { return vm.hostVMA }

// HostVAOf maps a guest physical address to its host virtual address in
// the VM's backing VMA.
func (vm *VM) HostVAOf(gpa addr.PhysAddr) addr.VirtAddr {
	return vm.baseVA.Add(uint64(gpa))
}

// NewGuestProcess starts a process inside the guest OS.
func (vm *VM) NewGuestProcess(homeZone int) *osim.Process {
	return vm.Guest.NewProcess(homeZone)
}

// Touch simulates a guest application access: a guest page fault maps
// gVA→gPA if needed (1st dimension), and a nested fault backs the gPA
// with host memory if needed (2nd dimension). Guest kernel time (fault
// latencies) accumulates on the guest clock; nested fault time on the
// host clock.
func (vm *VM) Touch(p *osim.Process, gva addr.VirtAddr, write bool) error {
	v := p.VMAs.Find(gva)
	if v == nil {
		return fmt.Errorf("virt: guest fault: %w", osim.ErrSegfault)
	}
	_, err := vm.TouchAt(p, v, gva, write)
	return err
}

// TouchAt is Touch with the guest VMA already resolved. It reports
// whether either dimension took a fault.
func (vm *VM) TouchAt(p *osim.Process, v *vma.VMA, gva addr.VirtAddr, write bool) (bool, error) {
	gf, err := p.TouchAt(v, gva, write)
	if err != nil {
		return false, fmt.Errorf("virt: guest fault: %w", err)
	}
	gpa, ok := p.Translate(gva)
	if !ok {
		return false, fmt.Errorf("virt: guest translation missing after fault at %v", gva)
	}
	hf, err := vm.HostProc.TouchAt(vm.hostVMA, vm.HostVAOf(gpa), write)
	if err != nil {
		return false, fmt.Errorf("virt: nested fault: %w", err)
	}
	if hf && vm.tr != nil {
		vm.tr.Emit(trace.EvNestedFault, uint64(gva), uint64(gpa), 0)
	}
	return gf || hf, nil
}

// TouchRangeQuiet advances over up to maxPages consecutive guest pages
// starting at gva whose translations are present — and, on writes, not
// copy-on-write — in BOTH dimensions, setting Accessed/Dirty bits and
// touch bitmaps exactly as the per-page TouchAt loop would. It stops
// before the first page needing either a guest or a nested fault and
// returns how many pages it advanced over.
//
// Guest physical addresses are only contiguous within one guest leaf,
// so the walk is chunked: resolve the guest leaf once, then hand its
// gPA-contiguous extent to the host-side quiet walk. The guest leaf's
// flag update commutes with the host-side touches (the two dimensions
// share no state), so setting it once per chunk equals the per-page
// interleaving.
func (vm *VM) TouchRangeQuiet(p *osim.Process, v *vma.VMA, gva addr.VirtAddr, maxPages uint64, write bool) uint64 {
	set := pagetable.Accessed
	var stop pagetable.Flags
	if write {
		set |= pagetable.Dirty
		stop = pagetable.CoW
	}
	var done uint64
	for done < maxPages {
		cur := gva.Add(done * addr.PageSize)
		gpte, gpages, ok := p.PT.Lookup(cur)
		if !ok || gpte.Flags&stop != 0 {
			break
		}
		span := gpages * addr.PageSize
		within := uint64(cur) & (span - 1)
		chunk := (span - within) / addr.PageSize
		if rem := maxPages - done; chunk > rem {
			chunk = rem
		}
		gpa := gpte.PFN.Addr() + addr.PhysAddr(within)
		hn := vm.HostProc.TouchRangeQuiet(vm.hostVMA, vm.HostVAOf(gpa), chunk, write)
		if hn > 0 {
			gpte.Flags |= set
			v.MarkTouchedRange(uint64(cur-v.Start)/addr.PageSize, hn)
			done += hn
		}
		if hn < chunk {
			break
		}
	}
	return done
}

// TranslateFull performs the full 2D translation gVA→gPA→hPA.
func (vm *VM) TranslateFull(p *osim.Process, gva addr.VirtAddr) (addr.PhysAddr, bool) {
	gpa, ok := p.Translate(gva)
	if !ok {
		return 0, false
	}
	return vm.HostProc.Translate(vm.HostVAOf(gpa))
}

// NestedWalk is the hardware view of one 2D page walk, consumed by the
// walk cost model and SpOT's fill path.
type NestedWalk struct {
	HPA addr.PhysAddr
	// GuestLevel/HostLevel are the leaf levels (0 = 4K, 1 = 2M).
	GuestLevel, HostLevel int
	// Refs is the number of memory references of the nested walk:
	// (g+1)*(h+1)-1 for g guest and h host levels touched, the paper's
	// "up to 24 memory references" structure.
	Refs int
	// GuestContig and HostContig report the PTE contiguity bits of the
	// two leaf entries; SpOT fills only when both are set.
	GuestContig, HostContig bool
	OK                      bool
}

// Walk performs the nested walk for gva through p's guest tables and
// the VM's host backing, without faulting.
func (vm *VM) Walk(p *osim.Process, gva addr.VirtAddr) NestedWalk {
	gpte, glevel, gsteps, ok := p.PT.Walk(gva)
	if !ok {
		return NestedWalk{}
	}
	span := uint64(addr.PageSize)
	if glevel == pagetable.HugeLevel {
		span = addr.HugeSize
	}
	gpa := gpte.PFN.Addr() + addr.PhysAddr(uint64(gva)&(span-1))
	hva := vm.HostVAOf(gpa)
	hpte, hlevel, hsteps, ok := vm.HostProc.PT.Walk(hva)
	if !ok {
		return NestedWalk{}
	}
	hspan := uint64(addr.PageSize)
	if hlevel == pagetable.HugeLevel {
		hspan = addr.HugeSize
	}
	hpa := hpte.PFN.Addr() + addr.PhysAddr(uint64(hva)&(hspan-1))
	return NestedWalk{
		HPA:         hpa,
		GuestLevel:  glevel,
		HostLevel:   hlevel,
		Refs:        (gsteps+1)*(hsteps+1) - 1,
		GuestContig: gpte.Flags.Has(pagetable.Contig),
		HostContig:  hpte.Flags.Has(pagetable.Contig),
		OK:          true,
	}
}

// NestedTables returns the two page tables a nested walk for p
// consults: the guest table (gVA→gPA) and the host backing table
// (host VA→hPA). A gVA→hPA composition derived from them is valid only
// while *both* tables stand still, so derived-state consumers observe
// both.
func (vm *VM) NestedTables(p *osim.Process) (guest, host *pagetable.Table) {
	return p.PT, vm.HostProc.PT
}

// Mappings2D extracts the VM's full 2D (gVA→hPA) contiguous mappings
// for a guest process — the in-house VMI tool of §V: walk the guest
// page table, compose each extent with the host (nested) translations,
// and merge runs where gVA and hPA advance in lockstep.
func (vm *VM) Mappings2D(p *osim.Process) []metrics.Mapping {
	var out []metrics.Mapping
	var cur metrics.Mapping
	flush := func() {
		if cur.Pages > 0 {
			out = append(out, cur)
			cur = metrics.Mapping{}
		}
	}
	p.PT.Visit(func(l pagetable.Leaf) {
		gva := l.VA
		remaining := l.Pages
		gpa := l.PTE.PFN.Addr()
		for remaining > 0 {
			hva := vm.HostVAOf(gpa)
			hpte, hpages, ok := vm.HostProc.PT.Lookup(hva)
			if !ok {
				// gPA not backed yet: break the run and skip one page.
				flush()
				gva = gva.Add(addr.PageSize)
				gpa += addr.PageSize
				remaining--
				continue
			}
			// Offset of hva within the host leaf.
			leafSpan := hpages * addr.PageSize
			within := uint64(hva) & (leafSpan - 1)
			hpa := hpte.PFN.Addr() + addr.PhysAddr(within)
			chunk := (leafSpan - within) / addr.PageSize
			if chunk > remaining {
				chunk = remaining
			}
			if cur.Pages > 0 && gva == cur.End() && hpa == cur.PA+addr.PhysAddr(cur.Pages*addr.PageSize) {
				cur.Pages += chunk
			} else {
				flush()
				cur = metrics.Mapping{VA: gva, PA: hpa, Pages: chunk}
			}
			gva = gva.Add(chunk * addr.PageSize)
			gpa += addr.PhysAddr(chunk * addr.PageSize)
			remaining -= chunk
		}
	})
	flush()
	return out
}

// Destroy tears down the VM: guest processes exit, and the host backing
// VMA is unmapped (host frames return to the host buddy).
func (vm *VM) Destroy() {
	for _, p := range append([]*osim.Process(nil), vm.Guest.Processes()...) {
		p.Exit()
	}
	vm.HostProc.Exit()
}
