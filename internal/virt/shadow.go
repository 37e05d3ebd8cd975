package virt

import (
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
)

// ShadowTable implements shadow paging, the classic software MMU
// virtualization the paper notes its techniques remain applicable to
// (§VII): the hypervisor maintains a composite gVA→hPA page table that
// the hardware walks *natively* (4 levels, no nested expansion), at the
// cost of a hypervisor exit to re-synchronise the shadow on every guest
// page-table update.
//
// The simulator builds the shadow lazily: a shadow miss composes the
// guest and host translations for the faulting gVA and installs the
// composite leaf (counted as one synchronisation exit). Guest-side
// unmaps would invalidate shadow entries; the simulator builds a fresh
// shadow per measured run, matching the paper's steady-state windows.
type ShadowTable struct {
	vm    *VM
	proc  *osim.Process
	table *pagetable.Table

	// SyncExits counts hypervisor exits taken to fill shadow entries.
	SyncExits uint64
}

// NewShadow creates an empty shadow table for a guest process.
func (vm *VM) NewShadow(p *osim.Process) *ShadowTable {
	return &ShadowTable{vm: vm, proc: p, table: pagetable.New()}
}

// Walk resolves gva through the shadow: a hit costs a native walk; a
// miss costs a synchronisation exit that composes guest and host
// translations and installs the composite entry. ok is false when the
// gVA is unbacked in either dimension.
func (s *ShadowTable) Walk(gva addr.VirtAddr) (hpa addr.PhysAddr, level int, synced bool, ok bool) {
	if pte, lvl, _, hit := s.table.Walk(gva); hit {
		span := uint64(addr.PageSize)
		if lvl == pagetable.HugeLevel {
			span = addr.HugeSize
		}
		return pte.PFN.Addr() + addr.PhysAddr(uint64(gva)&(span-1)), lvl, false, true
	}
	// Shadow miss: the hypervisor composes the 2D translation.
	gpte, glevel, _, gok := s.proc.PT.Walk(gva)
	if !gok {
		return 0, 0, false, false
	}
	s.SyncExits++
	// The composite entry can be huge only when both dimensions map the
	// region huge (the frames are then mutually 2 MiB aligned).
	if glevel == pagetable.HugeLevel {
		hvaBase := s.vm.HostVAOf(gpte.PFN.Addr())
		if hpte, hlevel, _, hok := s.vm.HostProc.PT.Walk(hvaBase); hok && hlevel == pagetable.HugeLevel {
			base := gva.HugeDown()
			hpaBase := hpte.PFN.Addr() + addr.PhysAddr(uint64(hvaBase)&addr.HugeMask)
			s.table.Map2M(base, hpaBase.Frame(), pagetable.Writable)
			return hpaBase + addr.PhysAddr(uint64(gva)&addr.HugeMask), pagetable.HugeLevel, true, true
		}
	}
	gspan := uint64(addr.PageSize)
	if glevel == pagetable.HugeLevel {
		gspan = addr.HugeSize
	}
	gpa := gpte.PFN.Addr() + addr.PhysAddr(uint64(gva)&(gspan-1))
	hp, hok := s.vm.TranslateThroughHost(gpa)
	if !hok {
		return 0, 0, false, false
	}
	s.table.Map4K(gva.PageDown(), hp.Frame(), pagetable.Writable)
	return hp, 0, true, true
}

// Mapped4K returns the shadow's 4 KiB leaf count (test support).
func (s *ShadowTable) Mapped4K() uint64 { return s.table.Mapped4K() }

// Mapped2M returns the shadow's huge-leaf count.
func (s *ShadowTable) Mapped2M() uint64 { return s.table.Mapped2M() }

// TranslateThroughHost resolves a guest physical address to host
// physical through the VM's backing mappings.
func (vm *VM) TranslateThroughHost(gpa addr.PhysAddr) (addr.PhysAddr, bool) {
	return vm.HostProc.PT.Translate(vm.HostVAOf(gpa))
}
