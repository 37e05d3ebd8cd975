package check

import (
	"sync"

	"repro/internal/mem/zone"
	"repro/internal/osim"
)

// auditors recycles audit arenas for the package-level wrappers, so
// even one-shot callers (the op machine's CheckAll, ad-hoc test audits)
// pay the flat-array engine's allocation cost only once per P instead
// of once per audit. Arenas regrow to the largest machine they see.
var auditors = sync.Pool{New: func() any { return &Auditor{} }}

// Audit is the deep cross-layer consistency pass over one kernel: it
// ties frame ownership to PTE mappings, buddy free lists, contiguity-map
// extents, and VMA accounting, and proves the two directions the cheap
// per-layer invariants cannot see on their own — no frame is referenced
// by more (or fewer) translations than its MapCount says, and no
// allocated frame exists that nothing (mapping, page cache, or declared
// pin) accounts for. Each kernel's own boot reservation (recorded by
// osim.Kernel.BootReserve) counts as pinned; pinned lists any further
// extents intentionally held with no mapping, such as memory-hog chunks.
//
// Audit only reads; it is safe to call between any two kernel
// operations, from any test. Repeated callers (aging campaigns) should
// hold their own Auditor instead and call its Audit method: the arena
// is then reused across snapshots with zero steady-state allocation.
func Audit(k *osim.Kernel, pinned []Extent) error {
	return AuditKernels(k.Machine, []*osim.Kernel{k}, pinned)
}

// AuditKernels is Audit over a machine whose software state is split
// across several kernels sharing one frame table — the sharded aging
// campaign, where each shard kernel owns a zone subset through a view
// and the parent kernel owns the page cache and boot reservations.
// Structural invariants and the frame sweep run over m (the union
// machine); references are gathered from every kernel's processes and
// page cache before the sweep, so a frame mapped by one shard and
// cached by the parent is accounted once from each. The kernels must
// be quiesced (no concurrent stepping) for the duration of the call.
func AuditKernels(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	a := auditors.Get().(*Auditor)
	err := a.AuditKernels(m, ks, pinned)
	auditors.Put(a)
	return err
}
